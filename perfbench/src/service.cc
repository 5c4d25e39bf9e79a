// service: a PostcardServer with a ReplicationPrimary attached and a
// ReplicationStandby following it over loopback, driven by one
// PostcardClient in a closed loop. Per slot: SubmitFile for each file,
// AdvanceSlot(1), a wait until the standby has committed the slot, then
// QueryPlan for each file still waiting for its plan; a Snapshot every
// few slots. After the measured episodes an in-process ControllerRuntime
// replays episode 0's batches and must return the same plans and the same
// cost series.
#include <algorithm>
#include <memory>
#include <stdexcept>
#include <thread>

#include "harness.h"
#include "replication/primary.h"
#include "replication/standby.h"
#include "server/client.h"
#include "server/server.h"

namespace perfbench {

namespace {

namespace pr = postcard::runtime;
namespace ps = postcard::server;
namespace repl = postcard::replication;

constexpr int kSnapshotEvery = 10;    // slots between Snapshot requests
constexpr double kWaitLimitS = 30.0;  // standby wait before giving up

// The server, its primary, the standby and the client of one episode, all
// on runtime defaults. Slot 0 carries no files: its commit ships the
// standby's bootstrap snapshot, so the inputs' slots start at 1.
class ServedDriver : public Driver {
 public:
  ServedDriver(const Inputs& in, std::string snapshot_path)
      : snapshot_path_(std::move(snapshot_path)) {
    server_ = std::make_unique<ps::PostcardServer>(
        postcard::net::Topology(in.topology), ps::ServerOptions{});
    server_->add_postcard_backend();
    primary_ =
        std::make_unique<repl::ReplicationPrimary>(repl::PrimaryOptions{});
    primary_->attach(*server_);
    server_->start();
    primary_->start();
    repl::StandbyOptions so;
    so.primary_port = primary_->port();
    standby_ = std::make_unique<repl::ReplicationStandby>(
        postcard::net::Topology(in.topology),
        std::vector<repl::BackendSpec>{repl::BackendSpec::make_postcard()}, so);
    standby_->start();
    client_ =
        std::make_unique<ps::PostcardClient>("127.0.0.1", server_->port());
    const Clock::time_point start = Clock::now();
    while (!primary_->standby_connected()) {
      if (seconds_since(start) > kWaitLimitS) {
        throw std::runtime_error("standby never connected to the primary");
      }
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
    client_->advance(1);
    if (!wait_standby(0)) {
      throw std::runtime_error("standby never committed the bootstrap slot");
    }
  }

  // Stops everything before any member goes: the server's post-tick hook
  // points at the primary, so the server must be down while it exists.
  ~ServedDriver() override {
    client_.reset();
    standby_->stop();
    primary_->stop();
    server_->request_shutdown();
    server_->wait();
  }

  ServedDriver(const ServedDriver&) = delete;
  ServedDriver& operator=(const ServedDriver&) = delete;

  const char* submit_span() const override { return "client.submit_file"; }
  const char* advance_span() const override { return "client.advance"; }
  const char* query_span() const override { return "client.query_plan"; }

  bool submit(const postcard::net::FileRequest& file) override {
    return client_->submit_file(file).admitted;
  }
  void advance() override { client_->advance(1); }
  bool settle(Tracer& tracer, int slot, int parent) override {
    ScopedSpan span(tracer, "standby.poll", slot, parent);
    return wait_standby(slot);
  }
  bool query(int file_id, postcard::core::FilePlan* plan) override {
    ps::PlanReply reply = client_->query_plan(0, file_id);
    if (reply.found) *plan = std::move(reply.plan);
    return reply.found;
  }
  void between_slots(Tracer& tracer, int slot, int parent) override {
    if (slot % kSnapshotEvery != 0) return;
    ScopedSpan span(tracer, "client.snapshot", slot, parent);
    client_->snapshot(snapshot_path_);
  }
  pr::RuntimeStats stats() override { return client_->query_stats(); }

  repl::PrimaryStats primary_stats() const { return primary_->stats(); }
  repl::StandbyStats standby_stats() const { return standby_->stats(); }

 private:
  // Polls the standby at sub-millisecond steps (wait_for_commit sleeps
  // 2 ms between checks, too coarse for the lag it would measure).
  bool wait_standby(int slot) const {
    const Clock::time_point start = Clock::now();
    while (standby_->stats().last_commit_slot < slot) {
      if (seconds_since(start) > kWaitLimitS) return false;
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
    return true;
  }

  std::string snapshot_path_;
  std::unique_ptr<ps::PostcardServer> server_;
  std::unique_ptr<repl::ReplicationPrimary> primary_;
  std::unique_ptr<repl::ReplicationStandby> standby_;
  std::unique_ptr<ps::PostcardClient> client_;
};

// The last slot an episode of `slots` slots of traffic from `first_slot`
// commits, drain slots included.
int last_slot(int first_slot, int slots, const WorkloadShape& shape) {
  return first_slot + slots + shape.deadline_max - 1;
}

// The standby must end each episode at its last slot with no divergence.
void check_standby(const ServedDriver& driver, int last, RunResult& result) {
  const repl::StandbyStats s = driver.standby_stats();
  if (s.last_commit_slot != last || s.fingerprint_mismatches != 0) {
    result.failures.push_back(
        "standby: last_commit_slot " + std::to_string(s.last_commit_slot) +
        " (want " + std::to_string(last) + "), " +
        std::to_string(s.fingerprint_mismatches) + " fingerprint mismatches");
  }
}

bool same_plan(const postcard::core::FilePlan& a,
               const postcard::core::FilePlan& b) {
  if (a.file_id != b.file_id || a.transfers.size() != b.transfers.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.transfers.size(); ++i) {
    const postcard::core::Transfer& x = a.transfers[i];
    const postcard::core::Transfer& y = b.transfers[i];
    if (x.slot != y.slot || x.from != y.from || x.to != y.to ||
        x.link != y.link || x.volume != y.volume) {
      return false;
    }
  }
  return true;
}

// Replays `in` (slot 0 empty, as served) on an in-process runtime and
// compares its plans and cost series with what the service returned.
// Traced runs take the runtime layer's submit and query_plan times from
// this replay, which `replay` records.
void check_replay(const Inputs& in, const Episode& served, RunState& replay,
                  RunResult& result) {
  std::unique_ptr<Driver> driver = make_inprocess_driver(in);
  driver->advance();
  const Episode out = run_episode(*driver, in, 0, true, replay);
  for (const std::string& f : replay.result.failures) {
    result.failures.push_back(f);
  }
  long differ = static_cast<long>(out.plans.size() != served.plans.size());
  for (const auto& [id, plan] : out.plans) {
    const auto s = served.plans.find(id);
    if (s == served.plans.end() || !same_plan(s->second, plan)) ++differ;
  }
  if (differ > 0) {
    result.failures.push_back(
        "replay: served plans differ from the in-process replay");
  }
  if (out.costs() != served.costs()) {
    result.failures.push_back(
        "replay: served cost series differs from the in-process replay");
  }
}

}  // namespace

RunResult run_service(const RunOptions& o, const WorkloadShape& shape) {
  RunState run(o.trace);
  RunResult& result = run.result;
  repl::PrimaryStats shipped;
  const std::string snapshot_path = o.out_dir + "/service.psnp";
  const FirstEpisode first = run_episodes(
      o, shape, 1,
      [&](const Inputs& in) {
        return std::make_unique<ServedDriver>(in, snapshot_path);
      },
      [&](Driver& d, int episode) {
        auto& served = static_cast<ServedDriver&>(d);
        if (episode == 0) shipped = served.primary_stats();
        check_standby(served, last_slot(1, shape.slots, shape), result);
      },
      true, run);
  if (!result.failures.empty()) return result;
  RunState replay(o.trace);
  check_replay(first.inputs, first.out, replay, result);
  if (!result.failures.empty()) return result;
  add_end_to_end(result.end_to_end, run.samples, first.setup_s,
                 first.out.final_cost());
  if (!o.trace) return result;
  add_solver_layers(result.per_layer, run.counters, replay.tracer,
                    "ingress.submit", "runtime.query_plan");
  add_served_layers(result.per_layer, run.tracer, shipped.events_shipped,
                    shipped.commits_shipped);
  write_trace(o, run.tracer, run.counters);
  return result;
}

void add_served_probe(const RunOptions& o, const Inputs& in, int slots,
                      std::vector<Metric>& metrics, RunResult& result) {
  Inputs probe = in;
  probe.batches.resize(std::min(probe.batches.size(),
                                static_cast<std::size_t>(slots)));
  probe.first_slot = 1;
  for (auto& batch : probe.batches) {
    for (postcard::net::FileRequest& f : batch) f.release_slot += 1;
  }
  RunState run(true);
  ServedDriver driver(probe, o.out_dir + "/probe.psnp");
  run_episode(driver, probe, 0, false, run);
  check_standby(driver,
                last_slot(1, static_cast<int>(probe.batches.size()),
                          probe.shape),
                run.result);
  for (const std::string& f : run.result.failures) {
    result.failures.push_back(f);
  }
  const repl::PrimaryStats shipped = driver.primary_stats();
  add_served_layers(metrics, run.tracer, shipped.events_shipped,
                    shipped.commits_shipped);
}

}  // namespace perfbench
