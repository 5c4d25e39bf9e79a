// paper20 and fattree45: a closed loop in one process. Each slot's files go
// in through RequestIngress::submit, ControllerRuntime::tick() runs, and
// query_plan returns every plan committed so far.
#include <memory>

#include "harness.h"
#include "runtime/runtime.h"

namespace perfbench {

namespace {

namespace pr = postcard::runtime;

class InProcessDriver : public Driver {
 public:
  explicit InProcessDriver(const Inputs& in) {
    pr::RuntimeOptions options;  // deterministic, fail-fast audit armed
    options.slot_pivot_budget = in.shape.pivot_budget;
    runtime_ = std::make_unique<pr::ControllerRuntime>(
        postcard::net::Topology(in.topology), options);
    runtime_->add_postcard_backend();
  }

  const char* submit_span() const override { return "ingress.submit"; }
  const char* advance_span() const override { return "runtime.tick"; }
  const char* query_span() const override { return "runtime.query_plan"; }

  bool submit(const postcard::net::FileRequest& file) override {
    return runtime_->ingress().submit(file).admitted;
  }
  void advance() override { runtime_->tick(); }
  bool query(int file_id, postcard::core::FilePlan* plan) override {
    return runtime_->query_plan(0, file_id, plan);
  }
  pr::RuntimeStats stats() override { return runtime_->stats(); }

 private:
  std::unique_ptr<pr::ControllerRuntime> runtime_;
};

// Slots of the workload's own traffic the traced run serves to measure
// the server and replication layers.
constexpr int kProbeSlots = 10;

}  // namespace

std::unique_ptr<Driver> make_inprocess_driver(const Inputs& in) {
  return std::make_unique<InProcessDriver>(in);
}

RunResult run_inprocess(const RunOptions& o, const WorkloadShape& shape) {
  RunState run(o.trace);
  const FirstEpisode first = run_episodes(o, shape, 0, make_inprocess_driver,
                                          nullptr, false, run);
  RunResult& result = run.result;
  if (!result.failures.empty()) return result;
  add_end_to_end(result.end_to_end, run.samples, first.setup_s,
                 first.out.final_cost());
  if (!o.trace) return result;
  add_solver_layers(result.per_layer, run.counters, run.tracer,
                    "ingress.submit", "runtime.query_plan");
  write_trace(o, run.tracer, run.counters);
  add_served_probe(o, first.inputs, kProbeSlots, result.per_layer, result);
  return result;
}

}  // namespace perfbench
