// skysr_perfbench, the repository benchmark: one workload per invocation.
//
//   skysr_perfbench --workload paper_tokyo|mixed_tail|serve_hubs
//                   --seed N --seconds S --trace 0|1 [--out-dir DIR]
//
// Prints a human-readable report and, as its last line, one JSON object
// with the keys correct, attempted, failed and metrics. --trace 0 reports
// the end-to-end metrics, --trace 1 the per-layer metrics (from a run with
// the library's phase tracing attached, next to an untraced one); either
// way only the metrics the workload measured, in the order it measured
// them. Exits 1 on any wrong answer, failed query or failed layer check.

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "perfbench/src/harness.h"
#include "perfbench/src/workloads.h"

namespace skysr::perfbench {
namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: skysr_perfbench --workload paper_tokyo|mixed_tail|"
               "serve_hubs --seed N --seconds S --trace 0|1 [--out-dir DIR]\n");
  return 2;
}

int Main(int argc, char** argv) {
  RunArgs args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const char* flag = argv[i];
    const char* value = argv[i + 1];
    if (std::strcmp(flag, "--workload") == 0) {
      args.workload = value;
    } else if (std::strcmp(flag, "--seed") == 0) {
      args.seed = std::strtoull(value, nullptr, 10);
    } else if (std::strcmp(flag, "--seconds") == 0) {
      args.seconds = std::atof(value);
    } else if (std::strcmp(flag, "--trace") == 0) {
      args.trace = std::atoi(value) != 0;
    } else if (std::strcmp(flag, "--out-dir") == 0) {
      args.out_dir = value;
    } else {
      return Usage();
    }
  }
  if (argc % 2 != 1 || args.seconds <= 0) return Usage();

  MetricSink metrics;
  RunOutcome outcome;
  if (args.workload == "paper_tokyo" || args.workload == "mixed_tail") {
    outcome = RunEngineWorkload(args, &metrics);
  } else if (args.workload == "serve_hubs") {
    outcome = RunServeHubs(args, &metrics);
  } else {
    return Usage();
  }
  metrics.PrintTable(args.trace ? "per-layer metrics (traced run)"
                                : "end-to-end metrics");
  const bool correct = outcome.failed == 0 && outcome.check_failures == 0;
  std::printf("{\"correct\": %s, \"attempted\": %" PRId64
              ", \"failed\": %" PRId64 ", \"metrics\": %s}\n",
              correct ? "true" : "false", outcome.attempted, outcome.failed,
              metrics.ToJson().c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace skysr::perfbench

int main(int argc, char** argv) {
  return skysr::perfbench::Main(argc, argv);
}
