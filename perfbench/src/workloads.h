// The three benchmark workloads. Each runs its set-up, checks every timed
// answer against reference answers computed outside the timed window, and
// fills `metrics` with the end-to-end metrics (untraced run) or the
// per-layer metrics (traced run, `args.trace`).

#ifndef SKYSR_PERFBENCH_WORKLOADS_H_
#define SKYSR_PERFBENCH_WORKLOADS_H_

#include <cstdint>

#include "perfbench/src/harness.h"

namespace skysr::perfbench {

/// What the result line reports besides the metrics.
struct RunOutcome {
  int64_t attempted = 0;  // timed queries issued
  int64_t failed = 0;     // errors, wrong answers, timed-out or rejected
  int check_failures = 0; // layer sanity checks that did not hold
};

/// paper_tokyo and mixed_tail: one closed-loop client on one thread.
RunOutcome RunEngineWorkload(const RunArgs& args, MetricSink* metrics);

/// serve_hubs: a QueryService at its defaults under a windowed load thread.
RunOutcome RunServeHubs(const RunArgs& args, MetricSink* metrics);

}  // namespace skysr::perfbench

#endif  // SKYSR_PERFBENCH_WORKLOADS_H_
