// postcard_perfbench: runs one workload against the controller, checks its
// outputs, and prints one JSON result line. See perfbench/README.md.
//
//   postcard_perfbench --workload paper20|fattree45|service --seed N
//                      --seconds S --trace 0|1
//
// The last line of standard output is
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// with the end-to-end metrics when --trace is 0 and the per-layer metrics
// when it is 1. A failed check is reported on standard error, naming the
// check, and the exit code is 1.
#include <sys/stat.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "harness.h"

namespace {

using perfbench::Metric;

int usage() {
  std::fprintf(stderr,
               "usage: postcard_perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1\n");
  return 2;
}

void print_metrics(std::FILE* out, const std::vector<Metric>& metrics) {
  std::fprintf(out, "{");
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::fprintf(out, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                 i ? ", " : "", metrics[i].name.c_str(), metrics[i].value,
                 metrics[i].unit.c_str());
  }
  std::fprintf(out, "}");
}

bool report_failures(const std::vector<std::string>& failures) {
  for (const std::string& f : failures) {
    std::fprintf(stderr, "perfbench: check failed: %s\n", f.c_str());
  }
  return failures.empty();
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions o;
  o.start = perfbench::Clock::now();
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return usage();
    const std::string value = argv[++i];
    if (arg == "--workload") {
      o.workload = value;
      have_workload = true;
    } else if (arg == "--seed") {
      o.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      o.seconds = std::strtod(value.c_str(), nullptr);
    } else if (arg == "--trace") {
      o.trace = value != "0";
    } else {
      return usage();
    }
  }

  perfbench::WorkloadShape shape;
  if (!have_workload || !perfbench::find_shape(o.workload, &shape)) {
    return usage();
  }
  ::mkdir(o.out_dir.c_str(), 0755);

  perfbench::RunResult result;
  try {
    result = shape.name == "service" ? perfbench::run_service(o, shape)
                                     : perfbench::run_inprocess(o, shape);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s run aborted: %s\n", o.workload.c_str(),
                 e.what());
    return 1;
  }
  // The checker must still catch every seeded fault.
  std::vector<std::string> self_test_failures;
  perfbench::checker_self_test(&self_test_failures);
  for (const std::string& f : self_test_failures) result.failures.push_back(f);
  for (const Metric& m : result.end_to_end) {
    if (!std::isfinite(m.value)) {
      result.failures.push_back("metrics: " + m.name + " is not finite");
    }
  }
  if (!report_failures(result.failures)) return 1;

  // The other set goes to standard error: a traced run's end-to-end
  // figures, compared with an untraced run's, give the tracing overhead.
  std::fprintf(stderr, "perfbench: %s end-to-end%s: ", o.workload.c_str(),
               o.trace ? " (traced)" : "");
  print_metrics(stderr, result.end_to_end);
  std::fprintf(stderr, "\n");
  std::printf("{\"correct\": true, \"attempted\": %ld, \"failed\": %ld, "
              "\"metrics\": ",
              result.attempted, result.failed);
  print_metrics(stdout, o.trace ? result.per_layer : result.end_to_end);
  std::printf("}\n");
  return 0;
}
