// Shared pieces of the repository benchmark: run arguments, the metric sink
// that prints the result line, the benchmark's own span log, latency
// statistics, answer comparison and per-query engine self times derived
// from the library's phase tracer.
//
// The benchmark drives the library only through its public headers; every
// layer is measured from outside, by timing calls into it and reading what
// those calls return.

#ifndef SKYSR_PERFBENCH_HARNESS_H_
#define SKYSR_PERFBENCH_HARNESS_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "core/bssr_engine.h"
#include "core/query.h"
#include "obs/query_trace.h"
#include "util/rng.h"
#include "workload/dataset.h"

namespace skysr::perfbench {

/// Command-line arguments of one benchmark run.
struct RunArgs {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out_dir = ".";
};

/// Fixed benchmark constants shared by every workload.
inline constexpr int kSetupReps = 3;  // set-up repeated, median reported
inline constexpr int kReferenceThreads = 4;
/// Latency limit of goodput: answers slower than this do not count. It is
/// part of the metric's name in BENCHMARK.json (`goodput_1s_qps`).
inline constexpr double kGoodputLimitMs = 1000.0;

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// CPU time of the calling thread, in seconds. Time the host steals from
/// the machine and time other processes hold the core do not count.
double ThreadCpuSeconds();

/// The metrics of one run, in the order the workload measured them:
/// printed as a human table and as the `metrics` object of the result line.
/// run.py puts them in BENCHMARK.json's order and checks that none is
/// missing.
class MetricSink {
 public:
  void Add(const std::string& name, double value, const std::string& unit,
           int64_t samples = 0);
  /// Aligned "name value unit (n=samples)" lines.
  void PrintTable(const char* title) const;
  /// `{"name": {"value": v, "unit": "u"}, ...}` with full precision.
  std::string ToJson() const;

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
    int64_t samples;
  };
  std::vector<Entry> entries_;
};

/// The benchmark's own spans: one per call into a layer's public function.
/// Spans of one request share `request`; `parent` links a span to the span
/// that caused it. Kept in memory, written out once at the end.
class SpanLog {
 public:
  SpanLog() : epoch_(Clock::now()) {}

  int64_t Begin(const char* name, int64_t parent = -1, int64_t request = -1);
  void End(int64_t id);
  /// Attaches a numeric argument (rendered in the exported trace).
  void Arg(int64_t id, const char* key, double value);

  /// Total duration of every span named `name`, in seconds.
  double TotalSeconds(const char* name) const;
  /// Chrome trace-event JSON of every span (one track).
  bool WriteChromeJson(const std::string& path) const;

 private:
  int64_t NowNs() const;

  struct Span {
    const char* name;
    int64_t parent;
    int64_t request;
    int64_t start_ns;
    int64_t end_ns;
    std::vector<std::pair<const char*, double>> args;
  };
  Clock::time_point epoch_;
  std::vector<Span> spans_;
};

/// RAII span around one call.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name, int64_t parent = -1,
             int64_t request = -1)
      : log_(log), id_(log->Begin(name, parent, request)) {}
  ~ScopedSpan() { log_->End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_;
  int64_t id_;
};

/// Nearest-rank percentile (p in [0, 1]) of an unsorted sample.
double Percentile(std::vector<double> values, double p);
double Median(std::vector<double> values);

/// Bit-identical skyline comparison (PoI sequences and both scores).
bool SameRoutes(const std::vector<Route>& a, const std::vector<Route>& b);

/// The reference configuration answers are checked against: an unindexed
/// engine with the settle retriever and the speed-only options off.
QueryOptions ReferenceOptions();

/// One query to answer with the reference configuration.
struct ReferenceJob {
  const Dataset* dataset = nullptr;
  const Query* query = nullptr;
  std::vector<Route> routes;  // filled in
  bool ok = false;            // answered and not timed out
};

/// Answers every job with ReferenceOptions() on kReferenceThreads threads,
/// each with its own unindexed engine per dataset. Runs outside the timed
/// windows.
void ComputeReferences(std::vector<ReferenceJob>* jobs);

/// One-line query shape for the cost tables: k, predicate kinds,
/// destination.
std::string QueryShape(const Query& q);

/// One query's line in the top-cost table.
struct CostRow {
  std::string instance;  // dataset / scenario family
  int index = 0;         // position in its pool
  const Query* query = nullptr;
  double min_ms = 0;     // fastest observed time
  bool empty = false;    // empty skyline
  SearchStats stats;     // of one execution
};

/// Prints the 10 costliest queries: shape, empty answer, share of the sum
/// of min times, Q_b enqueues and settled vertices.
void PrintTopCosts(std::vector<CostRow> rows);

/// Per-query self time (ns) of each engine trace phase: a span's duration
/// minus the part of it its child spans cover. Derived from the closed
/// events of one query (the trace must be cleared before the query runs);
/// events arrive in close order, so children always precede their parent.
struct PhaseSelfTimes {
  int64_t self_ns[kNumTracePhases] = {};
  int64_t events = 0;
  int64_t dropped = 0;

  void Merge(const PhaseSelfTimes& o);
};
PhaseSelfTimes SelfTimesOf(const QueryTrace& trace);

/// The per-layer metrics read off the SearchStats the engine returns, one
/// entry per executed query: graph, retrieval and core work counters.
void AddCounterMetrics(const std::vector<SearchStats>& stats, MetricSink* m);

/// Seeded Fisher-Yates permutation of [0, n).
std::vector<size_t> Permutation(size_t n, Rng* rng);

/// Fails the run loudly: prints the layer check that broke.
struct CheckLog {
  int failures = 0;
  void Expect(bool ok, const std::string& what);
};

}  // namespace skysr::perfbench

#endif  // SKYSR_PERFBENCH_HARNESS_H_
