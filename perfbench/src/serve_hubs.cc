// serve_hubs: a QueryService at its defaults (512-entry result cache,
// shared query cache on, max_batch = 1) with CH and bucket tables attached,
// 3 workers, and one load thread that keeps a fixed window of outstanding
// Submit()s, larger than the worker count, so a queue forms. The queries are
// a pool of distinct mixed-shape queries whose starts and destinations are
// drawn from a few dozen hubs, replayed with Zipf skew. Answers are checked
// against reference answers computed after the timed windows.

#include <sys/prctl.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <future>
#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include "index/ch_oracle.h"
#include "perfbench/src/workloads.h"
#include "retrieval/category_buckets.h"
#include "scenario/scenario.h"
#include "service/query_service.h"
#include "service/result_cache.h"
#include "util/memory.h"

namespace skysr::perfbench {
namespace {

constexpr int kVertices = 5000;
constexpr size_t kPoolSize = 768;  // distinct queries (> result cache)
constexpr int kHubs = 48;
// Popularity rank r appears max(1, round(kZipfTop * r^-kZipfTheta)) times
// per replay round: 2,345 submissions over the 768 entries, about two
// thirds of them result-cache hits in a timed window.
constexpr double kZipfTheta = 1.0;
constexpr double kZipfTop = 300;
constexpr size_t kReplayBlock = 64;
constexpr int kWorkers = 3;
constexpr size_t kOutstanding = 4;  // in-flight Submit()s (> kWorkers)
constexpr size_t kWarmupSubmissions = 256;
constexpr std::chrono::microseconds kPollInterval(20);
// The end-to-end metrics cover the first kMeasuredSubmissions timed
// submissions of every session: the same queries (warm-up and prefix are
// whole replay blocks) whatever the seed and however fast the service is.
// A session keeps submitting until its deadline, so the prefix is served
// under the same load as the rest, and past it until it has made the
// prefix.
constexpr size_t kMeasuredSubmissions = 1024;
// The pool, its hubs and its replay order are fixed; the run seed shuffles
// submissions within replay blocks. Costs are heavy-tailed (single queries
// up to seconds): with the pool regenerated per seed, throughput moved by
// ~30% between seeds, so no run could resolve a 25% change.
constexpr uint64_t kPoolSeed = 20261017;

ScenarioSpec HubGraphSpec() {
  ScenarioSpec spec;
  spec.name = "cluster";
  spec.graph.family = GraphFamily::kCluster;
  spec.graph.target_vertices = kVertices;
  spec.graph.extra_edge_fraction = 0.3;
  spec.graph.weights = WeightModel::kEuclidean;
  spec.taxonomy.num_trees = 4;
  spec.taxonomy.max_fanout = 4;
  spec.taxonomy.max_levels = 3;
  spec.pois.num_pois = kVertices / 5;
  spec.pois.zipf_theta = 0.5;
  spec.pois.multi_category_rate = 0.1;
  spec.workload.num_queries = 0;
  SeedScenarioSpec(&spec, kPoolSeed);
  return spec;
}

/// Everything set-up builds: the dataset, its indexes and the service.
struct World {
  Dataset dataset;
  std::unique_ptr<ChOracle> ch;
  std::unique_ptr<CategoryBucketIndex> buckets;
  std::unique_ptr<QueryService> service;
};

ServiceConfig Config(const World& w, bool tracing) {
  ServiceConfig config;
  config.num_threads = kWorkers;
  config.oracle = w.ch.get();
  config.buckets = w.buckets.get();
  config.enable_tracing = tracing;
  return config;
}

std::unique_ptr<World> BuildWorld(SpanLog* spans, int64_t parent) {
  auto w = std::make_unique<World>();
  {
    ScopedSpan s(spans, "setup.make_scenario", parent);
    w->dataset = MakeScenario(HubGraphSpec()).dataset;
  }
  {
    ScopedSpan s(spans, "index.ch_build", parent);
    w->ch = std::make_unique<ChOracle>(ChOracle::Build(w->dataset.graph));
  }
  {
    ScopedSpan s(spans, "retrieval.bucket_build", parent);
    w->buckets = std::make_unique<CategoryBucketIndex>(
        CategoryBucketIndex::Build(w->dataset.graph, *w->ch));
  }
  {
    ScopedSpan s(spans, "service.construct", parent);
    w->service = std::make_unique<QueryService>(
        w->dataset.graph, w->dataset.forest, Config(*w, /*tracing=*/false));
  }
  return w;
}

/// kPoolSize distinct queries, |S| 2-3, the mixed predicate shape, with
/// starts and destinations moved onto kHubs hub vertices.
std::vector<Query> MakePool(const Dataset& ds) {
  Rng rng(kPoolSeed * 0xD1B54A32D192ED03ULL + 5);
  std::vector<VertexId> hubs;
  for (int h = 0; h < kHubs; ++h) {
    hubs.push_back(static_cast<VertexId>(
        rng.UniformU64(static_cast<uint64_t>(ds.graph.num_vertices()))));
  }
  std::vector<Query> pool;
  std::unordered_set<std::string> keys;
  for (uint64_t round = 0; pool.size() < kPoolSize; ++round) {
    ScenarioWorkloadParams params;
    params.num_queries = static_cast<int>(kPoolSize);
    params.min_sequence = 2;
    params.max_sequence = 3;
    params.multi_any_rate = 0.15;
    params.all_of_rate = 0.1;
    params.none_of_rate = 0.1;
    params.destination_rate = 0.25;
    params.seed = kPoolSeed * 7919 + round;
    for (Query& q : MakeScenarioQueries(ds, params)) {
      q.start = hubs[rng.UniformU64(kHubs)];
      if (q.destination) *q.destination = hubs[rng.UniformU64(kHubs)];
      if (pool.size() < kPoolSize &&
          keys.insert(CanonicalQueryKey(q, QueryOptions())).second) {
        pool.push_back(std::move(q));
      }
    }
  }
  return pool;
}

/// Zipf-skewed replay in rounds. Every round submits the same multiset —
/// the pool entry of popularity rank r appears max(1, round(kZipfTop *
/// r^-kZipfTheta)) times, so each entry appears at least once — in one
/// fixed order, cut into blocks of kReplayBlock submissions whose order
/// within the block is drawn from the run seed. A prefix of whole blocks
/// therefore holds the same queries whatever the seed, in a seed-dependent
/// order. The rank order is a fixed permutation of the pool.
class ZipfReplay {
 public:
  ZipfReplay(size_t n, uint64_t seed) : rng_(kPoolSeed) {
    const std::vector<size_t> rank_to_query = Permutation(n, &rng_);
    for (size_t r = 0; r < n; ++r) {
      const double copies = std::round(
          kZipfTop / std::pow(static_cast<double>(r + 1), kZipfTheta));
      round_.insert(round_.end(),
                    std::max<size_t>(1, static_cast<size_t>(copies)),
                    rank_to_query[r]);
    }
    for (const size_t i : Permutation(round_.size(), &rng_)) {
      order_.push_back(round_[i]);
    }
    round_ = order_;
    rng_.Reseed(seed * 0x9E3779B97F4A7C15ULL + 3);
  }
  size_t Next() {
    if (next_ == order_.size()) next_ = 0;
    if (next_ % kReplayBlock == 0) {
      const size_t end = std::min(order_.size(), next_ + kReplayBlock);
      std::copy(order_.begin() + next_, order_.begin() + end,
                round_.begin() + next_);
      for (size_t i = end - next_; i > 1; --i) {
        std::swap(round_[next_ + i - 1], round_[next_ + rng_.UniformU64(i)]);
      }
    }
    return round_[next_++];
  }

 private:
  Rng rng_;
  std::vector<size_t> order_;  // the fixed round order
  std::vector<size_t> round_;  // this round, blocks shuffled as reached
  size_t next_ = 0;
};

struct Answer {
  size_t pool_index = 0;
  size_t submission = 0;  // position in its Drive() call
  double done_s = 0;      // seen ready, from the start of Drive()
  double latency_ms = 0;
  Result<QueryResult> result = Status::Internal("not answered");
};

/// The answers of one Drive() call and how long it ran.
struct LoadRun {
  std::vector<Answer> answers;  // in completion order
  double drained_s = 0;         // until the last outstanding answer
};

/// Drives the service: keeps kOutstanding Submit()s in flight, submitting
/// until `seconds` have passed and at least `min_submissions` were made (or
/// `max_submissions` were made), then drains. Latency runs from Submit()
/// until the future is seen ready: the thread polls its futures every
/// kPollInterval, with its timer slack cut to 1 us so that a poll does not
/// oversleep by the default 50 us slack.
LoadRun Drive(QueryService* service, const std::vector<Query>& pool,
              ZipfReplay* replay, double seconds, size_t min_submissions,
              size_t max_submissions, SpanLog* spans) {
  prctl(PR_SET_TIMERSLACK, 1000UL, 0UL, 0UL, 0UL);
  struct Pending {
    size_t pool_index;
    size_t submission;
    Clock::time_point submitted;
    int64_t span;
    std::future<Result<QueryResult>> future;
  };
  LoadRun run;
  std::vector<Pending> pending;
  const auto start = Clock::now();
  size_t submissions = 0;
  while (true) {
    const bool open =
        submissions < max_submissions &&
        (SecondsSince(start) < seconds || submissions < min_submissions);
    while (open && pending.size() < kOutstanding) {
      const size_t idx = replay->Next();
      Pending p{idx, submissions, Clock::now(),
                spans != nullptr
                    ? spans->Begin("service.submit_to_ready", -1,
                                   static_cast<int64_t>(submissions))
                    : -1,
                service->Submit(pool[idx])};
      pending.push_back(std::move(p));
      ++submissions;
    }
    if (pending.empty()) break;
    bool any_ready = false;
    for (size_t i = 0; i < pending.size();) {
      if (pending[i].future.wait_for(std::chrono::seconds(0)) !=
          std::future_status::ready) {
        ++i;
        continue;
      }
      Answer a;
      a.pool_index = pending[i].pool_index;
      a.submission = pending[i].submission;
      a.done_s = SecondsSince(start);
      a.latency_ms = SecondsSince(pending[i].submitted) * 1e3;
      if (pending[i].span >= 0) spans->End(pending[i].span);
      a.result = pending[i].future.get();
      run.answers.push_back(std::move(a));
      pending[i] = std::move(pending.back());
      pending.pop_back();
      any_ready = true;
    }
    if (!any_ready) {
      pending.front().future.wait_for(kPollInterval);
    }
  }
  run.drained_s = SecondsSince(start);
  return run;
}

/// Result of checking the answers of every load run. The `measured`
/// fields and those below them cover the first kMeasuredSubmissions
/// submissions of each session.
struct Checked {
  int64_t attempted = 0;
  int64_t failed = 0;
  int64_t pruned_split_violations = 0;
  std::vector<SearchStats> executed;  // one per engine execution
  int64_t measured_correct = 0;
  int64_t measured_within_limit = 0;
  double measured_s = 0;  // per session until its prefix is answered, summed
  std::vector<double> session_qps;  // correct prefix answers per second
  std::vector<double> latencies_ms;
  std::vector<double> min_engine_ms;  // per pool entry; < 0 = absent
  std::vector<SearchStats> stats_of;  // of that execution
  std::vector<char> empty_of;
};

/// One service lifetime under load: warm-up, then a timed window.
struct Session {
  LoadRun run;
  MetricsSnapshot before;  // at the end of the warm-up
  MetricsSnapshot snap;    // of the timed window alone
  int64_t tail_hits = 0;   // dest-tail LRU activity in the timed window
  int64_t tail_misses = 0;
};

/// `submit_spans`, when set, gets one span per timed Submit().
Session Serve(QueryService* service, const std::vector<Query>& pool,
              uint64_t replay_seed, double seconds, SpanLog* spans,
              SpanLog* submit_spans) {
  ZipfReplay replay(pool.size(), replay_seed);
  Drive(service, pool, &replay, /*seconds=*/0, kWarmupSubmissions,
        kWarmupSubmissions, nullptr);
  Session s;
  s.before = service->Metrics();
  const int64_t hits0 = service->dest_tails().hits();
  const int64_t misses0 = service->dest_tails().misses();
  service->ResetMetrics();
  s.run = Drive(service, pool, &replay, seconds, kMeasuredSubmissions,
                SIZE_MAX, submit_spans);
  {
    ScopedSpan span(spans, "service.metrics_snapshot");
    s.snap = service->Metrics();
  }
  s.tail_hits = service->dest_tails().hits() - hits0;
  s.tail_misses = service->dest_tails().misses() - misses0;
  service->Shutdown();
  return s;
}

/// Reference answers for every pool entry some session answered, computed
/// after the timed windows. Indexed by pool entry; an entry no session
/// answered has no query.
std::vector<ReferenceJob> ReferencesFor(
    const Dataset& ds, const std::vector<Query>& pool,
    const std::vector<const Session*>& sessions) {
  std::vector<size_t> needed;
  std::vector<char> seen(pool.size(), 0);
  for (const Session* session : sessions) {
    for (const Answer& a : session->run.answers) {
      if (!seen[a.pool_index]) needed.push_back(a.pool_index);
      seen[a.pool_index] = 1;
    }
  }
  std::vector<ReferenceJob> jobs;
  for (const size_t i : needed) jobs.push_back({&ds, &pool[i], {}, false});
  ComputeReferences(&jobs);
  std::vector<ReferenceJob> refs(pool.size());
  for (size_t k = 0; k < needed.size(); ++k) {
    refs[needed[k]] = std::move(jobs[k]);
  }
  return refs;
}

/// Checks every answer of `sessions` against its reference.
Checked Check(const std::vector<Query>& pool,
              const std::vector<Session>& sessions,
              const std::vector<ReferenceJob>& refs) {
  Checked c;
  c.min_engine_ms.assign(pool.size(), -1);
  c.stats_of.resize(pool.size());
  c.empty_of.assign(pool.size(), 0);
  int reported = 0;
  for (const Session& session : sessions) {
    const LoadRun& run = session.run;
    int64_t correct = 0;
    double measured_s = 0;
    // A result-cache hit returns a copy of the execution that filled the
    // entry, elapsed time included; a changed elapsed time marks a new
    // execution.
    std::vector<double> last_elapsed(pool.size(), -1);
    for (const Answer& a : run.answers) {
      ++c.attempted;
      const bool measured = a.submission < kMeasuredSubmissions;
      if (measured) {
        c.latencies_ms.push_back(a.latency_ms);
        measured_s = std::max(measured_s, a.done_s);
      }
      const size_t i = a.pool_index;
      const bool ok = a.result.ok() && !a.result->stats.timed_out &&
                      refs[i].ok && SameRoutes(a.result->routes, refs[i].routes);
      if (!ok) {
        ++c.failed;
        if (reported++ < 5) {
          std::fprintf(stderr, "WRONG ANSWER: pool query %zu (%s): %s\n", i,
                       QueryShape(pool[i]).c_str(),
                       !a.result.ok() ? a.result.status().ToString().c_str()
                       : a.result->stats.timed_out ? "timed out"
                       : !refs[i].ok              ? "reference failed"
                                                  : "skyline differs");
        }
        continue;
      }
      const SearchStats& s = a.result->stats;
      if (s.cand_pruned_threshold + s.cand_pruned_floor != s.cand_pruned) {
        ++c.pruned_split_violations;
      }
      if (s.elapsed_ms != last_elapsed[i]) {
        c.executed.push_back(s);
        last_elapsed[i] = s.elapsed_ms;
      }
      if (!measured) continue;
      ++correct;
      if (a.latency_ms <= kGoodputLimitMs) ++c.measured_within_limit;
      if (c.min_engine_ms[i] < 0 || s.elapsed_ms < c.min_engine_ms[i]) {
        c.min_engine_ms[i] = s.elapsed_ms;
        c.stats_of[i] = s;
        c.empty_of[i] = a.result->routes.empty() ? 1 : 0;
      }
    }
    c.measured_correct += correct;
    c.measured_s += measured_s;
    c.session_qps.push_back(static_cast<double>(correct) / measured_s);
  }
  return c;
}

/// `tc` checks the traced sessions, each paired with the untraced session
/// of the same set-up and replay seed.
void AddLayerMetrics(const World& world, const std::vector<Session>& sessions,
                     const Checked& c, const Checked& tc, const SpanLog& spans,
                     MetricSink* m) {
  const double mib = 1.0 / (1024.0 * 1024.0);
  auto ratio = [](double num, double den) { return den > 0 ? num / den : 0.0; };
  auto total = [&](auto field) {
    double sum = 0;
    for (const Session& s : sessions) sum += static_cast<double>(field(s));
    return sum;
  };
  const double drained_s = total([](const Session& s) { return s.run.drained_s; });
  const double fwd_hits = total([](const Session& s) { return s.snap.xcache_fwd_hits; });
  const double fwd_misses =
      total([](const Session& s) { return s.snap.xcache_fwd_misses; });
  const double exec_ms = total([](const Session& s) {
    return s.snap.latency_sum_ms - s.snap.queue_wait_sum_ms;
  });
  const double completed = total([](const Session& s) { return s.snap.completed; });
  const double hits = total([](const Session& s) { return s.snap.cache_hits; });
  const double misses = total([](const Session& s) { return s.snap.cache_misses; });
  const double tail_hits = total([](const Session& s) { return s.tail_hits; });
  const double tail_misses = total([](const Session& s) { return s.tail_misses; });
  const double batches = total([](const Session& s) { return s.snap.batches; });
  std::vector<double> wait_p50, wait_p99;
  for (const Session& s : sessions) {
    wait_p50.push_back(s.snap.queue_wait_p50_ms);
    wait_p99.push_back(s.snap.queue_wait_p99_ms);
  }

  AddCounterMetrics(c.executed, m);
  m->Add("graph.settles_per_s",
         total([](const Session& s) { return s.snap.vertices_settled; }) /
             drained_s,
         "1/s");
  m->Add("index.ch_build_s", spans.TotalSeconds("index.ch_build") / kSetupReps,
         "s");
  m->Add("index.ch_mb", static_cast<double>(world.ch->MemoryBytes()) * mib,
         "MB");
  m->Add("retrieval.bucket_build_s",
         spans.TotalSeconds("retrieval.bucket_build") / kSetupReps, "s");
  m->Add("retrieval.bucket_mb",
         static_cast<double>(world.buckets->MemoryBytes()) * mib, "MB");
  m->Add("cache.fwd_hit_ratio", ratio(fwd_hits, fwd_hits + fwd_misses),
         "ratio");
  m->Add("cache.fwd_evictions",
         total([](const Session& s) { return s.snap.xcache_fwd_evictions; }),
         "count");
  m->Add("cache.resume_reuses",
         total([](const Session& s) { return s.snap.xcache_resume_reuses; }),
         "count");
  m->Add("cache.resume_evictions",
         total([](const Session& s) { return s.snap.xcache_resume_evictions; }),
         "count");
  // The resident gauge is folded from deltas, so the warm-up's part lives
  // in the snapshot taken before the metrics were reset.
  m->Add("cache.resident_mb",
         total([](const Session& s) {
           return s.before.xcache_resident_bytes + s.snap.xcache_resident_bytes;
         }) * mib / static_cast<double>(sessions.size()),
         "MB");
  m->Add("service.construct_s",
         spans.TotalSeconds("service.construct") / kSetupReps, "s");
  m->Add("service.queue_wait_p50_ms", Median(wait_p50), "ms");
  m->Add("service.queue_wait_p99_ms", Median(wait_p99), "ms");
  m->Add("service.execute_ms", ratio(exec_ms, completed), "ms");
  m->Add("service.worker_busy_ratio", exec_ms / (kWorkers * drained_s * 1e3),
         "ratio");
  m->Add("service.result_cache_hit_ratio", ratio(hits, hits + misses), "ratio");
  m->Add("service.dest_tail_hit_ratio",
         ratio(tail_hits, tail_hits + tail_misses), "ratio");
  m->Add("service.batch_mean_size",
         ratio(total([](const Session& s) { return s.snap.batched_queries; }),
               batches),
         "count");
  m->Add("service.coalesced",
         total([](const Session& s) { return s.snap.coalesced_queries; }),
         "count");
  m->Add("service.rejected",
         total([](const Session& s) { return s.snap.rejected; }), "count");
  m->Add("obs.trace_overhead_ratio",
         ratio(Median(c.session_qps), Median(tc.session_qps)) - 1.0, "ratio");
}

}  // namespace

RunOutcome RunServeHubs(const RunArgs& args, MetricSink* metrics) {
  SpanLog spans;
  RunOutcome out;
  // Every set-up builds its own service, and each serves one timed window:
  // the shared caches make a service's speed depend on which worker ran
  // which query before, so pooling independent services steadies the
  // figures. The traced run pairs each untraced service with a traced one
  // built on the same set-up and fed the same replay order.
  const double window =
      args.seconds / (args.trace ? 2 * kSetupReps : kSetupReps);
  std::vector<double> setup_s;
  std::vector<Session> sessions;
  std::vector<Session> traced_sessions;
  std::unique_ptr<World> world;
  std::unique_ptr<QueryService> traced;
  std::vector<Query> pool;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    traced.reset();
    world.reset();
    const int64_t span = spans.Begin("setup");
    const auto t0 = Clock::now();
    world = BuildWorld(&spans, span);
    setup_s.push_back(SecondsSince(t0));
    spans.End(span);
    if (pool.empty()) {
      pool = MakePool(world->dataset);
      std::printf("== serve_hubs: %zu distinct queries, %d hubs, %d workers, "
                  "%zu outstanding, %.1f s windows, seed %" PRIu64 "\n",
                  pool.size(), kHubs, kWorkers, kOutstanding, window,
                  args.seed);
    }
    const uint64_t replay_seed = args.seed * 8 + static_cast<uint64_t>(rep);
    SpanLog* submit_spans = args.trace ? &spans : nullptr;
    sessions.push_back(Serve(world->service.get(), pool, replay_seed, window,
                             &spans, submit_spans));
    if (args.trace) {
      {
        ScopedSpan s(&spans, "service.construct_traced");
        traced = std::make_unique<QueryService>(
            world->dataset.graph, world->dataset.forest,
            Config(*world, /*tracing=*/true));
      }
      traced_sessions.push_back(Serve(traced.get(), pool, replay_seed, window,
                                      &spans, submit_spans));
    }
  }
  // Read before the reference engines run.
  const double peak_rss_mb =
      static_cast<double>(PeakRssBytes()) / (1024.0 * 1024.0);
  std::vector<const Session*> all;
  for (const Session& s : sessions) all.push_back(&s);
  for (const Session& s : traced_sessions) all.push_back(&s);
  std::vector<ReferenceJob> refs;
  {
    ScopedSpan s(&spans, "reference");
    refs = ReferencesFor(world->dataset, pool, all);
  }
  const Checked c = Check(pool, sessions, refs);
  const Checked tc = Check(pool, traced_sessions, refs);
  out.attempted = c.attempted + tc.attempted;
  out.failed = c.failed + tc.failed;

  CheckLog log;
  log.Expect(c.pruned_split_violations == 0,
             "cand_pruned_threshold + cand_pruned_floor == cand_pruned");
  int64_t retrieval_runs = 0;
  for (const SearchStats& s : c.executed) {
    retrieval_runs += s.retriever_bucket_runs + s.retriever_resume_runs;
  }
  log.Expect(retrieval_runs > 0, "serve_hubs exercises the retrieval layer");
  for (const Session& s : sessions) {
    log.Expect(s.snap.completed + s.snap.errors + s.snap.coalesced_queries ==
                   s.snap.submitted,
               "completed + errors (+ coalesced) == submitted");
    log.Expect(s.snap.cache_hits > 0, "serve_hubs exercises the result cache");
    log.Expect(s.snap.xcache_fwd_hits > 0,
               "serve_hubs exercises the shared forward-search cache");
    log.Expect(s.tail_hits > 0, "serve_hubs exercises the dest-tail LRU");
    log.Expect(s.run.answers.size() >= kMeasuredSubmissions,
               "every session answers the sum_min_s prefix");
  }
  out.check_failures = log.failures;

  if (!args.trace) {
    double sum_min_ms = 0;
    int64_t distinct = 0;
    for (double ms : c.min_engine_ms) {
      if (ms >= 0) {
        sum_min_ms += ms;
        ++distinct;
      }
    }
    metrics->Add("throughput_qps",
                 static_cast<double>(c.measured_correct) / c.measured_s, "1/s",
                 c.measured_correct);
    metrics->Add("goodput_1s_qps",
                 static_cast<double>(c.measured_within_limit) / c.measured_s,
                 "1/s", c.measured_within_limit);
    metrics->Add("latency_p50_ms", Percentile(c.latencies_ms, 0.50), "ms",
                 static_cast<int64_t>(c.latencies_ms.size()));
    metrics->Add("latency_p99_ms", Percentile(c.latencies_ms, 0.99), "ms",
                 static_cast<int64_t>(c.latencies_ms.size()));
    metrics->Add("sum_min_s", sum_min_ms * 1e-3, "s", distinct);
    metrics->Add("setup_s", Median(setup_s), "s", kSetupReps);
    metrics->Add("peak_rss_mb", peak_rss_mb, "MB");
    std::vector<CostRow> rows;
    for (size_t i = 0; i < pool.size(); ++i) {
      if (c.min_engine_ms[i] >= 0) {
        rows.push_back({"hubs", static_cast<int>(i), &pool[i],
                        c.min_engine_ms[i], c.empty_of[i] != 0,
                        c.stats_of[i]});
      }
    }
    PrintTopCosts(std::move(rows));
  } else {
    AddLayerMetrics(*world, sessions, c, tc, spans, metrics);
    const std::string suffix = "-serve_hubs-seed" + std::to_string(args.seed) +
                               ".json";
    if (std::FILE* f =
            std::fopen((args.out_dir + "/service-trace" + suffix).c_str(), "w")) {
      const std::string json = traced->WorkerTracesToJson();
      std::fwrite(json.data(), 1, json.size(), f);
      std::fclose(f);
    }
    if (!spans.WriteChromeJson(args.out_dir + "/spans" + suffix)) {
      std::fprintf(stderr, "cannot write spans file\n");
    }
  }
  for (size_t i = 0; i < sessions.size(); ++i) {
    const Session& s = sessions[i];
    std::printf("   session %.1f s: %zu answers, first %zu at %.1f qps, "
                "result-cache hit %.3f",
                s.run.drained_s, s.run.answers.size(), kMeasuredSubmissions,
                c.session_qps[i], s.snap.cache_hit_rate);
    if (i < traced_sessions.size()) {
      std::printf("; traced: %.1f qps", tc.session_qps[i]);
    }
    std::printf("\n");
  }
  std::printf("   failed_ratio %.6f\n",
              static_cast<double>(c.failed) /
                  static_cast<double>(std::max<int64_t>(1, c.attempted)));
  return out;
}

}  // namespace skysr::perfbench
