#include "perfbench/src/harness.h"

#include <time.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <thread>

namespace skysr::perfbench {

void MetricSink::Add(const std::string& name, double value,
                     const std::string& unit, int64_t samples) {
  entries_.push_back({name, std::isfinite(value) ? value : 0.0, unit, samples});
}

void MetricSink::PrintTable(const char* title) const {
  std::printf("-- %s\n", title);
  for (const Entry& e : entries_) {
    if (e.samples > 0) {
      std::printf("  %-34s %16.6f %-6s n=%" PRId64 "\n", e.name.c_str(),
                  e.value, e.unit.c_str(), e.samples);
    } else {
      std::printf("  %-34s %16.6f %s\n", e.name.c_str(), e.value,
                  e.unit.c_str());
    }
  }
}

std::string MetricSink::ToJson() const {
  std::string out = "{";
  for (size_t i = 0; i < entries_.size(); ++i) {
    char buf[256];
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", entries_[i].name.c_str(),
                  entries_[i].value, entries_[i].unit.c_str());
    out += buf;
  }
  return out + "}";
}

int64_t SpanLog::NowNs() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              epoch_)
      .count();
}

int64_t SpanLog::Begin(const char* name, int64_t parent, int64_t request) {
  const int64_t now = NowNs();
  spans_.push_back({name, parent, request, now, now, {}});
  return static_cast<int64_t>(spans_.size()) - 1;
}

void SpanLog::End(int64_t id) { spans_[static_cast<size_t>(id)].end_ns = NowNs(); }

void SpanLog::Arg(int64_t id, const char* key, double value) {
  spans_[static_cast<size_t>(id)].args.emplace_back(key, value);
}

double SpanLog::TotalSeconds(const char* name) const {
  int64_t ns = 0;
  for (const Span& s : spans_) {
    if (std::strcmp(s.name, name) == 0) ns += s.end_ns - s.start_ns;
  }
  return static_cast<double>(ns) * 1e-9;
}

bool SpanLog::WriteChromeJson(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fputs("{\"traceEvents\":[", f);
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                 "\"parent\":%" PRId64 ",\"request\":%" PRId64,
                 i == 0 ? "" : ",", s.name,
                 static_cast<double>(s.start_ns) / 1e3,
                 static_cast<double>(s.end_ns - s.start_ns) / 1e3, i, s.parent,
                 s.request);
    for (const auto& [key, value] : s.args) {
      std::fprintf(f, ",\"%s\":%.9g", key, value);
    }
    std::fputs("}}", f);
  }
  std::fputs("\n]}\n", f);
  return std::fclose(f) == 0;
}

double ThreadCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(p * static_cast<double>(values.size()));
  const size_t idx = static_cast<size_t>(std::max(1.0, rank)) - 1;
  return values[std::min(idx, values.size() - 1)];
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

bool SameRoutes(const std::vector<Route>& a, const std::vector<Route>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].pois != b[i].pois ||
        std::memcmp(&a[i].scores.length, &b[i].scores.length,
                    sizeof(Weight)) != 0 ||
        std::memcmp(&a[i].scores.semantic, &b[i].scores.semantic,
                    sizeof(double)) != 0) {
      return false;
    }
  }
  return true;
}

QueryOptions ReferenceOptions() {
  QueryOptions options;
  options.retriever = RetrieverKind::kSettle;
  options.use_qb_dominance = false;
  options.use_shared_cache = false;
  return options;
}

void ComputeReferences(std::vector<ReferenceJob>* jobs) {
  const QueryOptions options = ReferenceOptions();
  std::vector<std::thread> threads;
  for (int t = 0; t < kReferenceThreads; ++t) {
    threads.emplace_back([jobs, &options, t] {
      std::vector<std::pair<const Dataset*, std::unique_ptr<BssrEngine>>>
          engines;
      for (size_t i = static_cast<size_t>(t); i < jobs->size();
           i += kReferenceThreads) {
        ReferenceJob& job = (*jobs)[i];
        BssrEngine* engine = nullptr;
        for (auto& [ds, e] : engines) {
          if (ds == job.dataset) engine = e.get();
        }
        if (engine == nullptr) {
          engines.emplace_back(job.dataset,
                               std::make_unique<BssrEngine>(
                                   job.dataset->graph, job.dataset->forest));
          engine = engines.back().second.get();
        }
        auto r = engine->Run(*job.query, options);
        if (r.ok() && !r->stats.timed_out) {
          job.routes = std::move(r->routes);
          job.ok = true;
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
}

std::string QueryShape(const Query& q) {
  int any = 0, all = 0, none = 0;
  for (const CategoryPredicate& p : q.sequence) {
    any += p.any_of.size() > 1 ? 1 : 0;
    all += p.all_of.empty() ? 0 : 1;
    none += p.none_of.empty() ? 0 : 1;
  }
  char buf[96];
  std::snprintf(buf, sizeof(buf), "k=%d or=%d all=%d none=%d dest=%s",
                q.size(), any, all, none, q.destination ? "y" : "n");
  return buf;
}

void PrintTopCosts(std::vector<CostRow> rows) {
  constexpr size_t kRows = 10;
  double total = 0;
  for (const CostRow& r : rows) total += r.min_ms;
  std::sort(rows.begin(), rows.end(), [](const CostRow& a, const CostRow& b) {
    return a.min_ms > b.min_ms;
  });
  std::printf("-- top %zu queries by min time (share of sum_min_s)\n", kRows);
  std::printf("  %-4s %-11s %-5s %-40s %-5s %7s %10s %10s %10s\n", "rank",
              "instance", "query", "shape", "empty", "share%", "min_ms",
              "enqueued", "settled");
  for (size_t i = 0; i < kRows && i < rows.size(); ++i) {
    const CostRow& r = rows[i];
    std::printf("  %-4zu %-11s %-5d %-40s %-5s %7.2f %10.2f %10" PRId64
                " %10" PRId64 "\n",
                i + 1, r.instance.c_str(), r.index, QueryShape(*r.query).c_str(),
                r.empty ? "yes" : "no", 100.0 * r.min_ms / total, r.min_ms,
                r.stats.routes_enqueued, r.stats.vertices_settled);
  }
}

void PhaseSelfTimes::Merge(const PhaseSelfTimes& o) {
  for (int i = 0; i < kNumTracePhases; ++i) self_ns[i] += o.self_ns[i];
  events += o.events;
  dropped += o.dropped;
}

PhaseSelfTimes SelfTimesOf(const QueryTrace& trace) {
  // child_ns[d] accumulates the closed children of the span open at depth
  // d - 1; a span closing at depth d takes child_ns[d + 1] as its covered
  // part and adds its own duration to its parent's bucket.
  constexpr int kMaxDepth = 256;
  int64_t child_ns[kMaxDepth + 1] = {};
  PhaseSelfTimes out;
  trace.ForEachEvent([&](const TraceEvent& e) {
    const int d = e.depth;
    out.self_ns[static_cast<int>(e.phase)] += e.dur_ns - child_ns[d + 1];
    child_ns[d + 1] = 0;
    child_ns[d] += e.dur_ns;
    ++out.events;
  });
  out.dropped = trace.dropped();
  return out;
}

void AddCounterMetrics(const std::vector<SearchStats>& stats, MetricSink* m) {
  const double n = static_cast<double>(std::max<size_t>(1, stats.size()));
  auto total = [&](auto field) {
    int64_t sum = 0;
    for (const SearchStats& s : stats) sum += field(s);
    return static_cast<double>(sum);
  };
  auto ratio = [](double num, double den) { return den > 0 ? num / den : 0.0; };
  int64_t peak_queue = 0, logical_peak = 0;
  for (const SearchStats& s : stats) {
    peak_queue = std::max(peak_queue, s.peak_queue_size);
    logical_peak = std::max(logical_peak, s.logical_peak_bytes);
  }
  const double bucket_runs =
      total([](const SearchStats& s) { return s.retriever_bucket_runs; });
  const double examined =
      total([](const SearchStats& s) { return s.cand_examined; });
  const double exp_runs =
      total([](const SearchStats& s) { return s.mdijkstra_runs; });
  const double exp_hits =
      total([](const SearchStats& s) { return s.mdijkstra_cache_hits; });

  m->Add("graph.settled_per_query",
         total([](const SearchStats& s) { return s.vertices_settled; }) / n,
         "count");
  m->Add("retrieval.bucket_runs_per_query", bucket_runs / n, "count");
  m->Add("retrieval.resume_runs_per_query",
         total([](const SearchStats& s) { return s.retriever_resume_runs; }) /
             n,
         "count");
  m->Add("retrieval.candidates_per_run",
         ratio(total([](const SearchStats& s) { return s.bucket_candidates; }),
               bucket_runs),
         "count");
  m->Add("core.enqueued_per_query",
         total([](const SearchStats& s) { return s.routes_enqueued; }) / n,
         "count");
  m->Add("core.dequeued_per_query",
         total([](const SearchStats& s) { return s.routes_dequeued; }) / n,
         "count");
  m->Add("core.peak_queue", static_cast<double>(peak_queue), "count");
  m->Add("core.cand_examined_per_query", examined / n, "count");
  m->Add("core.cand_pruned_ratio",
         ratio(total([](const SearchStats& s) { return s.cand_pruned; }),
               examined),
         "ratio");
  m->Add("core.simd_skipped_per_query",
         total([](const SearchStats& s) { return s.cand_simd_skipped; }) / n,
         "count");
  m->Add("core.dom_pruned_per_query",
         total([](const SearchStats& s) { return s.qb_dominance_pruned; }) / n,
         "count");
  m->Add("core.expansions_per_query", (exp_runs + exp_hits) / n, "count");
  m->Add("core.expansion_cache_hit_ratio", ratio(exp_hits, exp_runs + exp_hits),
         "ratio");
  m->Add("core.logical_peak_mb",
         static_cast<double>(logical_peak) / (1024.0 * 1024.0), "MB");
}

std::vector<size_t> Permutation(size_t n, Rng* rng) {
  std::vector<size_t> order(n);
  for (size_t i = 0; i < n; ++i) order[i] = i;
  for (size_t i = n; i > 1; --i) {
    std::swap(order[i - 1], order[rng->UniformU64(i)]);
  }
  return order;
}

void CheckLog::Expect(bool ok, const std::string& what) {
  if (ok) return;
  ++failures;
  std::fprintf(stderr, "LAYER CHECK FAILED: %s\n", what.c_str());
}

}  // namespace skysr::perfbench
