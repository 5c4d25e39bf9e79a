// Shared pieces of the workload drivers: run options, the result every run
// prints, the closed slot loop both front ends share, and the metrics
// computed from its raw samples and spans.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "checker.h"
#include "core/plan.h"
#include "inputs.h"
#include "net/file_request.h"
#include "net/topology.h"
#include "runtime/stats.h"
#include "trace.h"

namespace perfbench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  Clock::time_point start;  // entry to main(); set-up is timed from here
  std::string out_dir = ".bench_out";  // traces and snapshots
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunResult {
  long attempted = 0;
  long failed = 0;
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;      // filled by traced runs only
  std::vector<std::string> failures;  // each names the check that failed
};

/// Raw samples of every slot of every episode a run measured.
struct Samples {
  std::vector<double> slot_s;    // tick() / AdvanceSlot round trip
  std::vector<double> answer_s;  // first submit .. last plan returned
  long planned_files = 0;        // files given a committed plan
};

/// Per-slot deltas of the counters the program exports through
/// RuntimeStats, read by traced runs only.
struct SlotCounters {
  int episode = 0;
  int slot = 0;
  double tick_s = 0.0;  // whole tick, as the runtime's own slot timer saw it
  double pricing_s = 0.0;
  double master_s = 0.0;
  double audit_s = 0.0;
  long pivots = 0;
  long solves = 0;
  long resumed = 0;
  long warm = 0;
  long cold = 0;
  long degraded = 0;
};

/// One front end of the controller as the slot loop sees it: in-process
/// (RequestIngress + tick + query_plan) or served (PostcardClient). Span
/// names say which public call each step makes.
class Driver {
 public:
  virtual ~Driver() = default;
  virtual const char* submit_span() const = 0;
  virtual const char* advance_span() const = 0;
  virtual const char* query_span() const = 0;
  /// Submits one file; false when the controller refused it.
  virtual bool submit(const postcard::net::FileRequest& file) = 0;
  /// Processes the current slot.
  virtual void advance() = 0;
  /// After the slot: waits until `slot` is safe to answer from (the
  /// standby has committed it); false on timeout. Opens its own spans.
  virtual bool settle(Tracer& tracer, int slot, int parent) {
    (void)tracer, (void)slot, (void)parent;
    return true;
  }
  /// The committed plan of `file_id`; false when there is none yet.
  virtual bool query(int file_id, postcard::core::FilePlan* plan) = 0;
  /// Work between slots, outside the answer span (snapshots).
  virtual void between_slots(Tracer& tracer, int slot, int parent) {
    (void)tracer, (void)slot, (void)parent;
  }
  /// Cumulative counters of the program.
  virtual postcard::runtime::RuntimeStats stats() = 0;
};

/// What a run gathers over its episodes: spans, raw samples, per-slot
/// counters (traced runs), and the files attempted and failed with every
/// check failure.
struct RunState {
  explicit RunState(bool trace) : tracer(trace) {}
  Tracer tracer;
  Samples samples;
  std::vector<SlotCounters> counters;
  RunResult result;
};

/// What one episode returned: plans by file id (kept when asked), the
/// program's counters at its end, and what the checker saw.
struct Episode {
  std::map<int, postcard::core::FilePlan> plans;
  postcard::runtime::RuntimeStats stats;
  long plans_checked = 0;
  double peak_utilization = 0.0;  // busiest (link, slot), share of capacity

  const std::vector<double>& costs() const {
    return stats.backends.at(0).cost_series;
  }
  /// The program's final cost per interval, 0 before any slot.
  double final_cost() const { return costs().empty() ? 0.0 : costs().back(); }
};

/// Runs one episode's slots through `driver` in a closed loop, then a few
/// empty slots so carried-over files get their plans, and adds what it
/// measured and every check failure to `run`.
Episode run_episode(Driver& driver, const Inputs& in, int episode,
                    bool keep_plans, RunState& run);

/// Episode 0 of a run: its inputs, its outputs, and the set-up time of
/// the run, which ends once its driver is built.
struct FirstEpisode {
  double setup_s = 0.0;
  Inputs inputs;
  Episode out;
};

/// Episodes of new traffic, each on a fresh driver, until the run's time
/// is up. `after_episode`, when set, sees each episode's driver before it
/// goes; `keep_first_plans` keeps episode 0's plans.
using DriverFactory =
    std::function<std::unique_ptr<Driver>(const Inputs& inputs)>;
using EpisodeHook = std::function<void(Driver& driver, int episode)>;
FirstEpisode run_episodes(const RunOptions& o, const WorkloadShape& shape,
                          int first_slot, const DriverFactory& make_driver,
                          const EpisodeHook& after_episode,
                          bool keep_first_plans, RunState& run);

/// The in-process front end: RequestIngress::submit, tick, query_plan on
/// a ControllerRuntime with its default options (deterministic, fail-fast
/// audit armed) and the shape's pivot budget.
std::unique_ptr<Driver> make_inprocess_driver(const Inputs& in);

std::vector<CheckLink> check_links(const postcard::net::Topology& topology);
CheckFile check_file(const postcard::net::FileRequest& file);
CheckPlan check_plan(const postcard::core::FilePlan& plan);

void add_metric(std::vector<Metric>& metrics, const std::string& name,
                double value, const std::string& unit);

/// The end-to-end metrics shared by every workload.
void add_end_to_end(std::vector<Metric>& metrics, const Samples& samples,
                    double setup_s, double cost_per_interval);

/// The core, lp, audit and runtime metrics from per-slot counters, plus
/// the runtime's submit and query_plan spans named `submit`/`query`.
void add_solver_layers(std::vector<Metric>& metrics,
                       const std::vector<SlotCounters>& slots,
                       const Tracer& tracer, const std::string& submit,
                       const std::string& query);

/// The server and replication metrics from a served run's spans and the
/// primary's shipped-event counts of one episode.
void add_served_layers(std::vector<Metric>& metrics, const Tracer& tracer,
                       long events_shipped, long commits_shipped);

/// Writes spans and per-slot counters under `out_dir` when the run ends.
void write_trace(const RunOptions& o, const Tracer& tracer,
                 const std::vector<SlotCounters>& slots);

RunResult run_inprocess(const RunOptions& options, const WorkloadShape& shape);
RunResult run_service(const RunOptions& options, const WorkloadShape& shape);

/// Serves the first `slots` slots of `in` through the service workload's
/// server, primary and standby, and adds the server and replication
/// metrics it measured. Traced in-process runs call it after their
/// episodes: those layers lie on none of their end-to-end paths.
void add_served_probe(const RunOptions& o, const Inputs& in, int slots,
                      std::vector<Metric>& metrics, RunResult& result);

/// Seeds each fault the checker must catch into a small hand-made
/// instance; appends a failure for every fault it misses.
void checker_self_test(std::vector<std::string>* failures);

}  // namespace perfbench
