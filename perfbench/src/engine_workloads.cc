// paper_tokyo and mixed_tail: one closed-loop client on one thread calling
// BssrEngine::Run over a query pool, pass after pass, each pass in a seeded
// order. Per-query min-of-N over the passes gives sum_min_s.
//
// A Run() call is timed by its thread's CPU time. Nothing else runs while
// the client does, so on an idle core that is its wall time; on a shared
// host it leaves out the time the core was taken away from the client.

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "core/bssr_engine.h"
#include "index/ch_oracle.h"
#include "perfbench/src/workloads.h"
#include "retrieval/category_buckets.h"
#include "scenario/scenario.h"
#include "util/memory.h"
#include "workload/dataset.h"
#include "workload/query_gen.h"

namespace skysr::perfbench {
namespace {

constexpr int kTokyoPerSize = 200;   // queries per |S| in 2..5
constexpr uint64_t kTokyoPoolSeed = 20261017;
constexpr int kMixedPerFamily = 60;  // per family, bench_hotpath's default
// Passes the per-query minimum covers. Passes of one run differ by up to
// 10% with the host's speed, and a few ~1 s queries carry most of
// sum_min_s: over 3 passes of a 120-query family pool, sum_min_s spread
// 6% between sets of passes of one run; over 6 passes of this pool, 2%.
constexpr int kTokyoMinPasses = 6;
constexpr int kMixedMinPasses = 6;
constexpr int kMixedVertices = 2500;
constexpr size_t kTraceCapacity = size_t{1} << 22;  // events per query

/// One dataset with its query pool, optional CH + bucket tables, and the
/// engine under test.
struct Instance {
  std::string name;
  Dataset dataset;
  std::vector<Query> queries;
  std::unique_ptr<ChOracle> ch;
  std::unique_ptr<CategoryBucketIndex> buckets;
  std::unique_ptr<BssrEngine> engine;
};

struct World {
  std::vector<std::unique_ptr<Instance>> instances;
};

/// bench_hotpath's mixed query shape on one family, with its scenario
/// seeds: |S| 1-4, any_of disjunctions, all_of/none_of, 25% destinations,
/// 10% multi-category PoIs, non-distinct trees. The pool is fixed and the
/// run seed only orders the passes: seeded pools of this mix took 4 to 51 s
/// per 300-query pass, with single queries up to 45 s.
ScenarioSpec MixedTailSpec(GraphFamily family) {
  ScenarioSpec spec;
  spec.name = GraphFamilyName(family);
  spec.graph.family = family;
  spec.graph.target_vertices = kMixedVertices;
  spec.graph.extra_edge_fraction = 0.3;
  spec.graph.weights = WeightModel::kEuclidean;
  spec.taxonomy.num_trees = 4;
  spec.taxonomy.max_fanout = 4;
  spec.taxonomy.max_levels = 3;
  spec.pois.num_pois = kMixedVertices / 5;
  spec.pois.zipf_theta = 0.5;
  spec.pois.multi_category_rate = 0.1;
  spec.workload.num_queries = kMixedPerFamily;
  spec.workload.min_sequence = 1;
  spec.workload.max_sequence = 4;
  spec.workload.multi_any_rate = 0.15;
  spec.workload.all_of_rate = 0.1;
  spec.workload.none_of_rate = 0.1;
  spec.workload.destination_rate = 0.25;
  SeedScenarioSpec(&spec, /*master_seed=*/20260730 + static_cast<int>(family));
  return spec;
}

World BuildTokyo(SpanLog* spans, int64_t parent) {
  World w;
  auto inst = std::make_unique<Instance>();
  inst->name = "tokyo";
  {
    ScopedSpan s(spans, "setup.make_dataset", parent);
    inst->dataset = MakeDataset(TokyoLikeSpec(1.0));
  }
  {
    ScopedSpan s(spans, "setup.engine", parent);
    inst->engine = std::make_unique<BssrEngine>(inst->dataset.graph,
                                                inst->dataset.forest);
  }
  w.instances.push_back(std::move(inst));
  return w;
}

World BuildMixedTail(SpanLog* spans, int64_t parent) {
  World w;
  for (const GraphFamily family :
       {GraphFamily::kGrid, GraphFamily::kCluster, GraphFamily::kSmallWorld}) {
    auto inst = std::make_unique<Instance>();
    inst->name = GraphFamilyName(family);
    {
      ScopedSpan s(spans, "setup.make_scenario", parent);
      Scenario sc = MakeScenario(MixedTailSpec(family));
      inst->dataset = std::move(sc.dataset);
      inst->queries = std::move(sc.queries);
    }
    const Graph& g = inst->dataset.graph;
    {
      ScopedSpan s(spans, "index.ch_build", parent);
      inst->ch = std::make_unique<ChOracle>(ChOracle::Build(g));
    }
    {
      ScopedSpan s(spans, "retrieval.bucket_build", parent);
      inst->buckets = std::make_unique<CategoryBucketIndex>(
          CategoryBucketIndex::Build(g, *inst->ch));
    }
    {
      ScopedSpan s(spans, "setup.engine", parent);
      inst->engine = std::make_unique<BssrEngine>(
          g, inst->dataset.forest, inst->ch.get(), inst->buckets.get());
    }
    w.instances.push_back(std::move(inst));
  }
  return w;
}

/// The paper's §7.1 workload: GenerateQueries plain sequences, |S| = 2..5,
/// distinct trees, no destination. The pool is drawn once from a fixed seed
/// and the run seed orders the passes: with the pool drawn from the run
/// seed, sum_min_s moved by 13% between seeds on a quiet host, from which
/// queries were drawn alone.
void GenerateTokyoQueries(Instance* inst) {
  for (int size = 2; size <= 5; ++size) {
    QueryGenParams qp;
    qp.count = kTokyoPerSize;
    qp.sequence_size = size;
    qp.seed = kTokyoPoolSeed * 1000003 + static_cast<uint64_t>(size);
    for (Query& q : GenerateQueries(inst->dataset, qp)) {
      inst->queries.push_back(std::move(q));
    }
  }
}

struct Item {
  Instance* inst = nullptr;
  const Query* query = nullptr;
  int index = 0;  // position in its instance's pool
  std::vector<Route> answer;  // the first timed answer
  bool answered = false;
  int64_t same_answers = 0;  // timed answers equal to `answer`
};

/// Compares each query's first timed answer with its reference; returns the
/// number of timed answers that were therefore wrong.
int64_t CheckAgainstReferences(std::vector<Item>* items, SpanLog* spans) {
  std::vector<ReferenceJob> refs(items->size());
  for (size_t i = 0; i < items->size(); ++i) {
    refs[i].dataset = &(*items)[i].inst->dataset;
    refs[i].query = (*items)[i].query;
  }
  {
    ScopedSpan s(spans, "reference");
    ComputeReferences(&refs);
  }
  int64_t failed = 0;
  int reported = 0;
  for (size_t i = 0; i < items->size(); ++i) {
    const Item& item = (*items)[i];
    if (!item.answered ||
        (refs[i].ok && SameRoutes(item.answer, refs[i].routes))) {
      continue;
    }
    failed += item.same_answers;
    if (reported++ < 5) {
      std::fprintf(stderr, "WRONG ANSWER: %s query %d (%s): %s\n",
                   item.inst->name.c_str(), item.index,
                   QueryShape(*item.query).c_str(),
                   refs[i].ok ? "skyline differs from the reference"
                              : "reference failed");
    }
  }
  return failed;
}

/// One timed window: whole passes over the pool until `seconds` have
/// passed (at least `min_passes`). The per-query minimum covers the first
/// `min_passes` passes only, so a faster engine, which fits more passes
/// into the window, does not also get more tries at its minimum.
struct Window {
  int passes = 0;
  std::vector<double> pass_busy_s;
  double busy_s = 0;       // sum of Run() call times (thread CPU)
  double wall_busy_s = 0;  // the same calls by the wall clock
  int64_t attempted = 0;
  int64_t failed = 0;
  int64_t correct_within_limit = 0;
  int64_t pruned_split_violations = 0;
  std::vector<double> samples_ms;
  std::vector<double> min_ms;       // per item, first min_passes passes
  std::vector<SearchStats> stats;   // per item, last pass
  std::vector<char> empty;          // per item
  PhaseSelfTimes self;              // traced windows only
  int64_t traced_queries = 0;
};

Window RunWindow(std::vector<Item>& items, double seconds, int min_passes,
                 Rng* order_rng, QueryTrace* trace, SpanLog* spans) {
  const size_t n = items.size();
  Window w;
  w.min_ms.assign(n, 1e300);
  w.stats.resize(n);
  w.empty.assign(n, 0);
  for (Item& item : items) item.inst->engine->AttachTrace(trace);
  double elapsed = 0;
  int reported = 0;
  while (true) {
    const auto pass_start = Clock::now();
    const double busy_before = w.busy_s;
    for (const size_t idx : Permutation(n, order_rng)) {
      Item& item = items[idx];
      const int64_t span =
          trace != nullptr ? spans->Begin("engine.run", -1,
                                          static_cast<int64_t>(idx))
                           : -1;
      const auto t0 = Clock::now();
      const double cpu0 = ThreadCpuSeconds();
      Result<QueryResult> r = item.inst->engine->Run(*item.query);
      const double ms = (ThreadCpuSeconds() - cpu0) * 1e3;
      w.wall_busy_s += SecondsSince(t0);
      if (span >= 0) spans->End(span);
      w.busy_s += ms * 1e-3;
      w.samples_ms.push_back(ms);
      if (w.passes < min_passes) w.min_ms[idx] = std::min(w.min_ms[idx], ms);
      ++w.attempted;
      if (trace != nullptr) {
        const PhaseSelfTimes st = SelfTimesOf(*trace);
        for (int p = 0; p < kNumTracePhases; ++p) {
          if (st.self_ns[p] > 0) {
            spans->Arg(span, kTracePhaseNames[p],
                       static_cast<double>(st.self_ns[p]) * 1e-6);
          }
        }
        w.self.Merge(st);
        ++w.traced_queries;
        trace->Clear();
      }
      // Every later answer must equal the first one, which is checked
      // against the reference after timing.
      const bool ok = r.ok() && !r->stats.timed_out &&
                      (!item.answered || SameRoutes(r->routes, item.answer));
      if (!ok) {
        ++w.failed;
        if (reported++ < 5) {
          std::fprintf(stderr, "WRONG ANSWER: %s query %d (%s): %s\n",
                       item.inst->name.c_str(), item.index,
                       QueryShape(*item.query).c_str(),
                       !r.ok()              ? r.status().ToString().c_str()
                       : r->stats.timed_out ? "timed out"
                                            : "skyline differs between runs");
        }
        continue;
      }
      if (!item.answered) {
        item.answer = r->routes;
        item.answered = true;
      }
      ++item.same_answers;
      if (ms <= kGoodputLimitMs) ++w.correct_within_limit;
      const SearchStats& s = r->stats;
      if (s.cand_pruned_threshold + s.cand_pruned_floor != s.cand_pruned) {
        ++w.pruned_split_violations;
      }
      w.stats[idx] = s;
      w.empty[idx] = r->routes.empty() ? 1 : 0;
    }
    const double pass_s = SecondsSince(pass_start);
    w.pass_busy_s.push_back(w.busy_s - busy_before);
    elapsed += pass_s;
    ++w.passes;
    if (w.passes >= min_passes && elapsed >= seconds) break;
  }
  for (Item& item : items) item.inst->engine->AttachTrace(nullptr);
  return w;
}

template <typename Fn>
int64_t SumOf(const Window& w, Fn&& field) {
  int64_t sum = 0;
  for (const SearchStats& s : w.stats) sum += field(s);
  return sum;
}

void PrintWindowCosts(const std::vector<Item>& items, const Window& w) {
  std::vector<CostRow> rows;
  for (size_t i = 0; i < items.size(); ++i) {
    rows.push_back({items[i].inst->name, items[i].index, items[i].query,
                    w.min_ms[i], w.empty[i] != 0, w.stats[i]});
  }
  PrintTopCosts(std::move(rows));
}

/// The layers each workload exists to exercise must show work; paper_tokyo
/// must show none in the retrieval layer.
int LayerChecks(bool tokyo, const Window& w) {
  CheckLog log;
  log.Expect(w.pruned_split_violations == 0,
             "cand_pruned_threshold + cand_pruned_floor == cand_pruned");
  const int64_t bucket =
      SumOf(w, [](const SearchStats& s) { return s.retriever_bucket_runs; });
  const int64_t resume =
      SumOf(w, [](const SearchStats& s) { return s.retriever_resume_runs; });
  const int64_t fwd =
      SumOf(w, [](const SearchStats& s) { return s.bucket_fwd_searches; });
  const int64_t dom =
      SumOf(w, [](const SearchStats& s) { return s.qb_dominance_pruned; });
  if (tokyo) {
    log.Expect(bucket == 0 && resume == 0 && fwd == 0,
               "paper_tokyo runs no retrieval backend (bucket/resume/fwd == 0)");
  } else {
    log.Expect(bucket > 0, "mixed_tail exercises bucket scans");
    log.Expect(resume > 0, "mixed_tail exercises resumable slots");
    log.Expect(dom > 0, "mixed_tail exercises Q_b dominance pruning");
  }
  return log.failures;
}

void AddLayerMetrics(const World& world, const Window& plain,
                     const Window& traced, double ch_build_s,
                     double bucket_build_s, MetricSink* m) {
  const double mib = 1.0 / (1024.0 * 1024.0);
  auto self_ms = [&](TracePhase p) {
    return traced.traced_queries > 0
               ? static_cast<double>(
                     traced.self.self_ns[static_cast<int>(p)]) *
                     1e-6 / static_cast<double>(traced.traced_queries)
               : 0.0;
  };
  int64_t ch_bytes = 0, bucket_bytes = 0;
  for (const auto& inst : world.instances) {
    if (inst->ch) ch_bytes += inst->ch->MemoryBytes();
    if (inst->buckets) bucket_bytes += inst->buckets->MemoryBytes();
  }
  AddCounterMetrics(traced.stats, m);
  const int64_t settled_per_pass =
      SumOf(plain, [](const SearchStats& s) { return s.vertices_settled; });
  m->Add("graph.settles_per_s",
         static_cast<double>(settled_per_pass) * plain.passes / plain.busy_s,
         "1/s");
  m->Add("index.ch_build_s", ch_build_s, "s");
  m->Add("index.ch_mb", static_cast<double>(ch_bytes) * mib, "MB");
  m->Add("index.oracle_table_ms", self_ms(TracePhase::kOracleTable), "ms");
  m->Add("retrieval.bucket_build_s", bucket_build_s, "s");
  m->Add("retrieval.bucket_mb", static_cast<double>(bucket_bytes) * mib, "MB");
  m->Add("retrieval.ms", self_ms(TracePhase::kRetrieval), "ms");

  double total_min = 0, empty_min = 0;
  std::vector<double> mins = plain.min_ms;
  for (size_t i = 0; i < mins.size(); ++i) {
    total_min += mins[i];
    if (plain.empty[i]) empty_min += mins[i];
  }
  std::sort(mins.rbegin(), mins.rend());
  double top5 = 0;
  for (size_t i = 0; i < 5 && i < mins.size(); ++i) top5 += mins[i];
  m->Add("core.empty_time_share", empty_min / total_min, "ratio");
  m->Add("core.top5_time_share", top5 / total_min, "ratio");
  m->Add("core.nn_init_ms", self_ms(TracePhase::kNnInit), "ms");
  m->Add("core.lower_bound_ms", self_ms(TracePhase::kLowerBound), "ms");
  m->Add("core.dest_tails_ms", self_ms(TracePhase::kDestTails), "ms");
  m->Add("core.qb_drain_ms", self_ms(TracePhase::kQbDrain), "ms");
  m->Add("core.expansion_ms", self_ms(TracePhase::kExpansion), "ms");
  m->Add("core.skyline_insert_ms", self_ms(TracePhase::kSkylineInsert), "ms");
  m->Add("core.plan_ms", self_ms(TracePhase::kQuery), "ms");
  const double plain_pass = plain.busy_s / plain.passes;
  const double traced_pass = traced.busy_s / traced.passes;
  m->Add("obs.trace_overhead_ratio", traced_pass / plain_pass - 1.0, "ratio");
}

}  // namespace

RunOutcome RunEngineWorkload(const RunArgs& args, MetricSink* metrics) {
  const bool tokyo = args.workload == "paper_tokyo";
  SpanLog spans;
  RunOutcome out;

  // Set-up, repeated: dataset construction, index builds and engine
  // construction. The last world is kept.
  std::vector<double> setup_s;
  World world;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    world = World();  // release the previous world before building anew
    const int64_t span = spans.Begin("setup");
    const auto t0 = Clock::now();
    world = tokyo ? BuildTokyo(&spans, span) : BuildMixedTail(&spans, span);
    setup_s.push_back(SecondsSince(t0));
    spans.End(span);
  }
  const double ch_build_s = spans.TotalSeconds("index.ch_build") / kSetupReps;
  const double bucket_build_s =
      spans.TotalSeconds("retrieval.bucket_build") / kSetupReps;

  std::vector<Item> items;
  for (auto& inst : world.instances) {
    if (tokyo) GenerateTokyoQueries(inst.get());
    for (size_t i = 0; i < inst->queries.size(); ++i) {
      Item item;
      item.inst = inst.get();
      item.query = &inst->queries[i];
      item.index = static_cast<int>(i);
      items.push_back(std::move(item));
    }
  }
  // One untimed pass in pool order, so that caches fill before timing. The
  // first pass also sets the process's memory high-water mark (later passes
  // reuse what it allocated); in seeded order, mixed_tail's peak_rss_mb
  // moved between 579 and 663 MB with the seed.
  for (const Item& item : items) (void)item.inst->engine->Run(*item.query);

  Rng order_rng(args.seed * 0x9E3779B97F4A7C15ULL + 17);
  std::printf("== %s: %zu queries over %zu instance(s), seed %" PRIu64 "\n",
              args.workload.c_str(), items.size(), world.instances.size(),
              args.seed);
  if (!args.trace) {
    const Window w = RunWindow(items, args.seconds,
                               tokyo ? kTokyoMinPasses : kMixedMinPasses,
                               &order_rng, nullptr, &spans);
    // Read before the reference engines run.
    const double peak_rss_mb =
        static_cast<double>(PeakRssBytes()) / (1024.0 * 1024.0);
    out.attempted = w.attempted;
    out.failed = w.failed + CheckAgainstReferences(&items, &spans);
    double sum_min = 0;
    for (double ms : w.min_ms) sum_min += ms;
    const int64_t correct = w.attempted - w.failed;
    metrics->Add("throughput_qps", static_cast<double>(correct) / w.busy_s,
                 "1/s", correct);
    metrics->Add("goodput_1s_qps",
                 static_cast<double>(w.correct_within_limit) / w.busy_s, "1/s",
                 w.correct_within_limit);
    metrics->Add("latency_p50_ms", Percentile(w.samples_ms, 0.50), "ms",
                 static_cast<int64_t>(w.samples_ms.size()));
    metrics->Add("latency_p99_ms", Percentile(w.samples_ms, 0.99), "ms",
                 static_cast<int64_t>(w.samples_ms.size()));
    metrics->Add("sum_min_s", sum_min * 1e-3, "s",
                 static_cast<int64_t>(items.size()));
    metrics->Add("setup_s", Median(setup_s), "s", kSetupReps);
    metrics->Add("peak_rss_mb", peak_rss_mb, "MB");
    PrintWindowCosts(items, w);
    std::printf("   passes %d, timed %.3f s cpu, %.3f s wall (", w.passes,
                w.busy_s, w.wall_busy_s);
    for (double s : w.pass_busy_s) std::printf(" %.3f", s);
    std::printf(" ), failed_ratio %.6f\n",
                static_cast<double>(w.failed) /
                    static_cast<double>(std::max<int64_t>(1, w.attempted)));
    out.check_failures += LayerChecks(tokyo, w);
  } else {
    const Window plain = RunWindow(items, args.seconds / 2, /*min_passes=*/1,
                                   &order_rng, nullptr, &spans);
    QueryTrace trace(kTraceCapacity);
    trace.set_enabled(true);
    const Window traced = RunWindow(items, args.seconds / 2, /*min_passes=*/1,
                                    &order_rng, &trace, &spans);
    out.attempted = plain.attempted + traced.attempted;
    out.failed = plain.failed + traced.failed +
                 CheckAgainstReferences(&items, &spans);
    AddLayerMetrics(world, plain, traced, ch_build_s,
                    bucket_build_s, metrics);
    PrintWindowCosts(items, plain);
    std::printf("   passes %d untraced + %d traced, trace events %" PRId64
                ", dropped %" PRId64 "\n",
                plain.passes, traced.passes, traced.self.events,
                traced.self.dropped);
    out.check_failures += LayerChecks(tokyo, traced);
    const std::string path = args.out_dir + "/spans-" + args.workload +
                             "-seed" + std::to_string(args.seed) + ".json";
    if (!spans.WriteChromeJson(path)) {
      std::fprintf(stderr, "cannot write %s\n", path.c_str());
    }
  }
  return out;
}

}  // namespace skysr::perfbench
