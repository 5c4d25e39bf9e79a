#include "harness.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <numeric>
#include <utility>

namespace perfbench {

namespace pr = postcard::runtime;
using postcard::core::FilePlan;
using postcard::net::FileRequest;

namespace {

SlotCounters counter_delta(const pr::RuntimeStats& before,
                           const pr::RuntimeStats& after) {
  const pr::BackendStats& a = before.backends.at(0);
  const pr::BackendStats& b = after.backends.at(0);
  SlotCounters c;
  c.tick_s = after.slot_latency.total_seconds() -
             before.slot_latency.total_seconds();
  c.pricing_s = b.pricing_seconds - a.pricing_seconds;
  c.master_s = b.master_seconds - a.master_seconds;
  c.audit_s = b.audit_seconds - a.audit_seconds;
  c.pivots = b.lp_iterations - a.lp_iterations;
  c.solves = b.lp_solves - a.lp_solves;
  c.resumed = b.resumed_solves - a.resumed_solves;
  c.warm = b.warm_accepts - a.warm_accepts;
  c.cold = b.cold_starts - a.cold_starts;
  c.degraded = b.degraded_slots - a.degraded_slots;
  return c;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

}  // namespace

Episode run_episode(Driver& driver, const Inputs& in, int episode,
                    bool keep_plans, RunState& run) {
  Episode out;
  Tracer& tracer = run.tracer;
  RunResult& result = run.result;
  OutputChecker checker(in.topology.num_datacenters(),
                        check_links(in.topology));
  std::map<int, const FileRequest*> pending;  // admitted, no plan yet
  long refused = 0;
  pr::RuntimeStats before;
  if (tracer.enabled()) before = driver.stats();

  const int slots = static_cast<int>(in.batches.size());
  const int drain = in.shape.deadline_max;
  for (int t = 0; t < slots + drain; ++t) {
    const bool timed = t < slots;
    const int slot = in.first_slot + t;
    std::vector<std::pair<const FileRequest*, FilePlan>> planned;
    {
      ScopedSpan slot_span(tracer, "slot", slot);
      const int parent = slot_span.id();
      const Clock::time_point answer_start = Clock::now();
      if (timed) {
        for (const FileRequest& f : in.batches[static_cast<std::size_t>(t)]) {
          ++result.attempted;
          bool admitted = false;
          {
            ScopedSpan span(tracer, driver.submit_span(), slot, parent);
            admitted = driver.submit(f);
          }
          if (admitted) {
            pending[f.id] = &f;
          } else {
            ++refused;
          }
        }
      }
      const Clock::time_point advance_start = Clock::now();
      {
        ScopedSpan span(tracer, driver.advance_span(), slot, parent);
        driver.advance();
      }
      const double advance_s = seconds_since(advance_start);
      if (!driver.settle(tracer, slot, parent)) {
        result.failures.push_back("standby: slot " + std::to_string(slot) +
                                  " not committed in time");
        return out;
      }
      for (auto it = pending.begin(); it != pending.end();) {
        FilePlan plan;
        bool found = false;
        {
          ScopedSpan span(tracer, driver.query_span(), slot, parent);
          found = driver.query(it->first, &plan);
        }
        if (found) {
          planned.emplace_back(it->second, std::move(plan));
          it = pending.erase(it);
        } else {
          ++it;
        }
      }
      if (timed) {
        run.samples.answer_s.push_back(seconds_since(answer_start));
        run.samples.slot_s.push_back(advance_s);
      }
      driver.between_slots(tracer, slot, parent);
    }
    run.samples.planned_files += static_cast<long>(planned.size());
    for (auto& [file, plan] : planned) {
      checker.add_plan(check_file(*file), check_plan(plan));
      if (keep_plans) out.plans[file->id] = std::move(plan);
    }
    if (tracer.enabled() && timed) {
      pr::RuntimeStats after = driver.stats();
      SlotCounters c = counter_delta(before, after);
      c.episode = episode;
      c.slot = slot;
      run.counters.push_back(c);
      before = std::move(after);
    }
  }

  // An admitted file without a plan failed; the program must have said so
  // by rejecting it or failing it after a carry.
  const long unplanned = static_cast<long>(pending.size());
  result.failed += refused + unplanned;
  out.stats = driver.stats();
  const pr::BackendStats& b = out.stats.backends.at(0);
  const long reported = b.rejected_files + b.failed_files;
  if (unplanned != reported) {
    checker.fail("delivery: " + std::to_string(unplanned) +
                 " admitted files got no plan in episode " +
                 std::to_string(episode) + ", the program reports " +
                 std::to_string(reported) + " rejected or failed");
  }
  // Every workload is shaped so that no file fails: a failed file is a
  // regression, not a cheaper plan.
  if (refused + unplanned > 0) {
    checker.fail("failed files: episode " + std::to_string(episode) +
                 " had " + std::to_string(refused) +
                 " files refused at ingress and " +
                 std::to_string(unplanned) + " rejected, failed or unplanned");
  }
  checker.finish(out.final_cost());
  out.plans_checked = checker.plans_checked();
  out.peak_utilization = checker.peak_utilization();
  for (const std::string& f : checker.failures()) result.failures.push_back(f);
  return out;
}

FirstEpisode run_episodes(const RunOptions& o, const WorkloadShape& shape,
                          int first_slot, const DriverFactory& make_driver,
                          const EpisodeHook& after_episode,
                          bool keep_first_plans, RunState& run) {
  FirstEpisode first;
  first.inputs = make_inputs(shape, episode_seed(o.seed, 0), first_slot);
  std::unique_ptr<Driver> driver = make_driver(first.inputs);
  first.setup_s = seconds_since(o.start);

  const Clock::time_point measure_start = Clock::now();
  for (int episode = 0;; ++episode) {
    const Clock::time_point episode_start = Clock::now();
    Inputs in;
    if (episode > 0) {
      driver.reset();
      in = make_inputs(shape, episode_seed(o.seed, episode), first_slot);
      driver = make_driver(in);
    }
    const Inputs& inputs = episode == 0 ? first.inputs : in;
    Episode out = run_episode(*driver, inputs, episode,
                              keep_first_plans && episode == 0, run);
    // A failed episode may have stopped early, without the program's
    // counters; its failures end the run.
    if (!run.result.failures.empty()) break;
    if (after_episode) after_episode(*driver, episode);
    if (episode == 0) {
      const pr::BackendStats& b = out.stats.backends.at(0);
      std::fprintf(stderr,
                   "perfbench: episode 0: %ld plans checked, busiest (link, "
                   "slot) at %.1f%% of capacity; program: admitted %ld, "
                   "rejected %ld, failed %ld, carried %ld, degraded slots "
                   "%ld\n",
                   out.plans_checked, 100.0 * out.peak_utilization,
                   out.stats.admitted, b.rejected_files, b.failed_files,
                   b.carryover_entered_files, b.degraded_slots);
      first.out = std::move(out);
    }
    // Stop when another episode would end further past the time than
    // stopping now falls short of it.
    const double elapsed = seconds_since(measure_start);
    if (!run.result.failures.empty() ||
        elapsed + 0.5 * seconds_since(episode_start) >= o.seconds) {
      break;
    }
  }
  return first;
}

std::vector<CheckLink> check_links(const postcard::net::Topology& topology) {
  std::vector<CheckLink> links;
  for (const postcard::net::Link& l : topology.links()) {
    links.push_back({l.from, l.to, l.capacity, l.unit_cost});
  }
  return links;
}

CheckFile check_file(const FileRequest& file) {
  return {file.id,   file.source,       file.destination,
          file.size, file.release_slot, file.max_transfer_slots};
}

CheckPlan check_plan(const FilePlan& plan) {
  CheckPlan p;
  p.file_id = plan.file_id;
  for (const postcard::core::Transfer& t : plan.transfers) {
    p.transfers.push_back({t.slot, t.from, t.to, t.volume, t.link});
  }
  return p;
}

void add_metric(std::vector<Metric>& metrics, const std::string& name,
                double value, const std::string& unit) {
  metrics.push_back({name, value, unit});
}

void add_end_to_end(std::vector<Metric>& m, const Samples& s, double setup_s,
                    double cost_per_interval) {
  add_metric(m, "setup_s", setup_s, "s");
  add_metric(m, "slot_p50_ms", 1e3 * quantile(s.slot_s, 0.5), "ms");
  add_metric(m, "slot_p90_ms", 1e3 * quantile(s.slot_s, 0.9), "ms");
  add_metric(m, "answer_p50_ms", 1e3 * quantile(s.answer_s, 0.5), "ms");
  add_metric(m, "answer_p90_ms", 1e3 * quantile(s.answer_s, 0.9), "ms");
  add_metric(m, "files_per_s",
             ratio(static_cast<double>(s.planned_files),
                   std::accumulate(s.slot_s.begin(), s.slot_s.end(), 0.0)),
             "1/s");
  add_metric(m, "cost_per_interval", cost_per_interval, "cost");
  add_metric(m, "peak_rss_mb", peak_rss_mb(), "MB");
}

void add_solver_layers(std::vector<Metric>& m,
                       const std::vector<SlotCounters>& slots,
                       const Tracer& tracer, const std::string& submit,
                       const std::string& query) {
  // Counts are those of episode 0, so that they repeat exactly for a
  // seed; times are means over every slot measured.
  long pivots = 0, solves = 0, resumed = 0, warm = 0, cold = 0, degraded = 0;
  double first_master = 0.0;
  double master = 0.0, pricing = 0.0, audit = 0.0, other = 0.0;
  double late_audit = 0.0;
  int late_n = 0;
  int last_slot = 0;
  for (const SlotCounters& c : slots) last_slot = std::max(last_slot, c.slot);
  const int late_from = last_slot + 1 - std::max(1, (last_slot + 1) / 10);
  for (const SlotCounters& c : slots) {
    if (c.episode == 0) {
      pivots += c.pivots;
      solves += c.solves;
      resumed += c.resumed;
      warm += c.warm;
      cold += c.cold;
      degraded += c.degraded;
      first_master += c.master_s;
    }
    master += c.master_s;
    pricing += c.pricing_s;
    audit += c.audit_s;
    other += c.tick_s - c.pricing_s - c.master_s - c.audit_s;
    if (c.slot >= late_from) {
      late_audit += c.audit_s;
      ++late_n;
    }
  }
  const double n = static_cast<double>(slots.size());
  // Each column-generation solve starts with one full master solve; every
  // later pricing round either resumes in place or solves again. Rounds
  // that could not resume are not exported, so they count as neither.
  const long master_solves = solves + resumed;
  add_metric(m, "lp.pivots", static_cast<double>(pivots), "count");
  add_metric(m, "lp.us_per_pivot",
             1e6 * ratio(first_master, static_cast<double>(pivots)), "us");
  add_metric(m, "core.master_ms", 1e3 * ratio(master, n), "ms");
  add_metric(m, "core.master_solves", static_cast<double>(master_solves),
             "count");
  add_metric(m, "core.resumed_share",
             ratio(static_cast<double>(resumed),
                   static_cast<double>(master_solves)),
             "ratio");
  add_metric(m, "core.warm_accept_rate",
             ratio(static_cast<double>(warm), static_cast<double>(warm + cold)),
             "ratio");
  add_metric(m, "core.pricing_ms", 1e3 * ratio(pricing, n), "ms");
  add_metric(m, "core.degraded_slots", static_cast<double>(degraded), "count");
  add_metric(m, "audit.ms", 1e3 * ratio(audit, n), "ms");
  add_metric(m, "audit.late_ms", 1e3 * ratio(late_audit, late_n), "ms");
  add_metric(m, "runtime.submit_us", 1e6 * mean(tracer.durations(submit)),
             "us");
  add_metric(m, "runtime.query_plan_us", 1e6 * mean(tracer.durations(query)),
             "us");
  add_metric(m, "runtime.tick_other_ms", 1e3 * ratio(other, n), "ms");
}

void add_served_layers(std::vector<Metric>& m, const Tracer& tracer,
                       long events_shipped, long commits_shipped) {
  add_metric(m, "server.submit_rtt_us",
             1e6 * mean(tracer.durations("client.submit_file")), "us");
  add_metric(m, "server.query_rtt_us",
             1e6 * mean(tracer.durations("client.query_plan")), "us");
  add_metric(m, "server.advance_rtt_ms",
             1e3 * mean(tracer.durations("client.advance")), "ms");
  add_metric(m, "server.snapshot_ms",
             1e3 * mean(tracer.durations("client.snapshot")), "ms");
  const std::vector<double> lag = tracer.durations("standby.poll");
  add_metric(m, "replication.ack_lag_ms", 1e3 * quantile(lag, 0.5), "ms");
  add_metric(m, "replication.ack_lag_p90_ms", 1e3 * quantile(lag, 0.9), "ms");
  add_metric(m, "replication.events_shipped",
             static_cast<double>(events_shipped), "count");
  add_metric(m, "replication.commits_shipped",
             static_cast<double>(commits_shipped), "count");
}

void write_trace(const RunOptions& o, const Tracer& tracer,
                 const std::vector<SlotCounters>& slots) {
  const std::string stem = o.out_dir + "/" + o.workload;
  if (!tracer.write(stem + "-spans.jsonl")) {
    std::fprintf(stderr, "perfbench: cannot write %s-spans.jsonl\n",
                 stem.c_str());
  }
  std::ofstream os(stem + "-slots.jsonl");
  os.precision(9);
  for (const SlotCounters& c : slots) {
    os << "{\"episode\":" << c.episode << ",\"slot\":" << c.slot
       << ",\"tick_s\":" << c.tick_s << ",\"pricing_s\":" << c.pricing_s
       << ",\"master_s\":" << c.master_s << ",\"audit_s\":" << c.audit_s
       << ",\"pivots\":" << c.pivots << ",\"solves\":" << c.solves
       << ",\"resumed\":" << c.resumed << ",\"warm\":" << c.warm
       << ",\"cold\":" << c.cold << ",\"degraded\":" << c.degraded << "}\n";
  }
  if (!os) {
    std::fprintf(stderr, "perfbench: cannot write %s-slots.jsonl\n",
                 stem.c_str());
  }
}

}  // namespace perfbench
