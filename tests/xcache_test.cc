// Cross-query shared-cache subsystem (src/cache/): CLOCK cache unit
// behavior, snapshot lookup, generation invalidation, persistent resumable
// slots, and — the serving contract — cold/warm bit-identity on one engine
// replaying repeated-source workloads, standalone and through QueryService.

#include <memory>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "baseline/brute_force.h"
#include "cache/fwd_search_cache.h"
#include "cache/shared_query_cache.h"
#include "core/bssr_engine.h"
#include "retrieval/bucket_retriever.h"
#include "scenario/diff_check.h"
#include "scenario/scenario.h"
#include "service/query_service.h"

namespace skysr {
namespace {

ScenarioSpec ServingSpec(GraphFamily family, uint64_t seed) {
  ScenarioSpec spec;
  spec.name = std::string("serving-") + GraphFamilyName(family);
  spec.graph.family = family;
  spec.graph.target_vertices = 360;
  spec.graph.extra_edge_fraction = 0.3;
  spec.graph.weights = WeightModel::kEuclidean;
  spec.taxonomy.num_trees = 3;
  spec.taxonomy.max_fanout = 3;
  spec.taxonomy.max_levels = 3;
  spec.pois.num_pois = 90;
  spec.pois.zipf_theta = 0.3;
  spec.pois.multi_category_rate = 0.2;  // keeps queries in deferred mode
  spec.workload.num_queries = 10;
  spec.workload.min_sequence = 2;
  spec.workload.max_sequence = 3;
  spec.workload.multi_any_rate = 0.2;
  spec.workload.all_of_rate = 0.2;
  spec.workload.none_of_rate = 0.2;
  spec.workload.destination_rate = 0.25;
  SeedScenarioSpec(&spec, seed);
  return spec;
}

void ExpectSameRoutes(const QueryResult& a, const QueryResult& b,
                      const char* what) {
  ASSERT_EQ(a.routes.size(), b.routes.size()) << what;
  for (size_t r = 0; r < a.routes.size(); ++r) {
    EXPECT_EQ(a.routes[r].scores.length, b.routes[r].scores.length)
        << what << " route " << r;
    EXPECT_EQ(a.routes[r].scores.semantic, b.routes[r].scores.semantic)
        << what << " route " << r;
    EXPECT_EQ(a.routes[r].pois, b.routes[r].pois) << what << " route " << r;
  }
}

// Insert/Lookup round-trips, capacity enforcement, and CLOCK second chance:
// the referenced entry survives the eviction sweep, the unreferenced one is
// the victim.
TEST(FwdSearchCacheTest, InsertLookupAndClockEviction) {
  const FwdSearchSettle a[] = {{1, 1.0, 1.0}, {2, 2.5, 2.5}};
  const FwdSearchSettle b[] = {{3, 3.0, 3.25}};
  FwdSearchCache cache(/*capacity=*/2);

  EXPECT_TRUE(cache.Lookup(10).empty());  // cold miss
  EXPECT_EQ(cache.counters().misses, 1);

  const auto stored = cache.Insert(10, a);
  ASSERT_EQ(stored.size(), 2u);
  EXPECT_EQ(stored[0].vertex, 1);
  EXPECT_EQ(stored[1].fsum, 2.5);
  cache.Insert(11, b);
  EXPECT_EQ(cache.size(), 2u);

  const auto hit = cache.Lookup(10);
  ASSERT_EQ(hit.size(), 2u);
  EXPECT_EQ(hit[1].df, 2.5);
  EXPECT_EQ(cache.counters().hits, 1);

  // At capacity: every ref bit is set, so the sweep clears them all and
  // takes the entry under the hand (10).
  cache.Insert(12, b);
  EXPECT_EQ(cache.counters().evictions, 1);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_TRUE(cache.Lookup(10).empty());

  // Reference 12 but not 11: the next eviction must spare the referenced
  // entry and take 11 — the second chance.
  ASSERT_FALSE(cache.Lookup(12).empty());
  cache.Insert(13, a);
  EXPECT_EQ(cache.counters().evictions, 2);
  EXPECT_TRUE(cache.Lookup(11).empty());
  EXPECT_FALSE(cache.Lookup(12).empty());
  EXPECT_FALSE(cache.Lookup(13).empty());

  cache.Clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_TRUE(cache.Lookup(12).empty());
  EXPECT_EQ(cache.counters().evictions, 2);  // counters survive Clear
}

TEST(FwdSearchCacheTest, SnapshotFindsOnlyPrewarmedSources) {
  const FwdSearchSettle a[] = {{7, 1.0, 1.0}};
  const FwdSearchSettle b[] = {{8, 2.0, 2.0}, {9, 3.0, 3.0}};
  FwdSnapshot snap;
  snap.Add(20, a);
  snap.Add(5, b);
  snap.Add(20, b);  // duplicate source: ignored
  snap.Finalize();
  EXPECT_EQ(snap.size(), 2u);
  EXPECT_EQ(snap.Find(20).size(), 1u);
  EXPECT_EQ(snap.Find(20)[0].vertex, 7);
  EXPECT_EQ(snap.Find(5).size(), 2u);
  EXPECT_TRUE(snap.Find(21).empty());
}

// Rebinding to a different structure checksum must drop every piece of warm
// state — resident entries AND a snapshot built against the old structure —
// and a snapshot whose checksum mismatches the live binding is refused.
TEST(SharedQueryCacheTest, RebindInvalidatesAndRefusesMismatchedSnapshots) {
  const FwdSearchSettle a[] = {{1, 1.0, 1.0}};
  SharedQueryCache cache;
  cache.Bind(111);
  cache.fwd_cache().Insert(5, a);

  auto snap = std::make_shared<FwdSnapshot>();
  snap->Add(5, a);
  snap->Finalize();
  snap->set_structure_checksum(111);
  cache.SetSnapshot(snap);
  ASSERT_NE(cache.snapshot(), nullptr);

  cache.Bind(111);  // same structure: warm state survives
  EXPECT_EQ(cache.fwd_cache().size(), 1u);
  EXPECT_NE(cache.snapshot(), nullptr);

  cache.Bind(222);  // new structure: everything warm is dropped
  EXPECT_EQ(cache.fwd_cache().size(), 0u);
  EXPECT_EQ(cache.snapshot(), nullptr);

  cache.SetSnapshot(snap);  // checksum 111 against binding 222: refused
  EXPECT_EQ(cache.snapshot(), nullptr);
}

// Engine-lifetime resumable slots: PrepareServing keeps suspended state
// across queries, reuses are counted once per slot per query, CLOCK spares
// the slot the current query touched, and per-query mode has no bound.
TEST(ResumablePoolTest, PersistentModeKeepsReusesAndEvicts) {
  const Scenario sc = MakeScenario(ServingSpec(GraphFamily::kGrid, 930));
  const Graph& g = sc.dataset.graph;

  ResumablePool pool;
  pool.PrepareServing(2);
  EXPECT_TRUE(pool.persistent());
  ResumableSlot* s0 = pool.FindOrCreate(g, 0);
  ResumableSlot* s1 = pool.FindOrCreate(g, 1);
  ASSERT_NE(s0, nullptr);
  ASSERT_NE(s1, nullptr);
  EXPECT_EQ(pool.reuses(), 0);  // creations are not reuses

  // Next query: suspended state survives, and touching a kept slot counts
  // as exactly one reuse.
  pool.PrepareServing(2);
  pool.BeginQuery();
  EXPECT_EQ(pool.FindOrCreate(g, 0), s0);
  EXPECT_EQ(pool.FindOrCreate(g, 0), s0);
  EXPECT_EQ(pool.reuses(), 1);

  // At capacity, the untouched slot (1) is the CLOCK victim; its object is
  // recycled for the new source.
  ResumableSlot* s2 = pool.FindOrCreate(g, 2);
  EXPECT_EQ(pool.evictions(), 1);
  EXPECT_EQ(s2, s1);
  EXPECT_EQ(s2->source, 2);
  EXPECT_EQ(pool.FindOrCreate(g, 2), s2);

  // Per-query mode: no bound, never evicts.
  pool.Reset();
  EXPECT_FALSE(pool.persistent());
  for (VertexId v = 0; v < 40; ++v) EXPECT_NE(pool.FindOrCreate(g, v), nullptr);
  EXPECT_EQ(pool.live(), 40);
  EXPECT_EQ(pool.evictions(), 1);
}

// A query that touches more sources than the bound keeps every slot it
// touched: the overflow gets nullptr (a plain fresh search in the engine)
// instead of evicting a slot an earlier expansion of the same query may
// resume. The next query may evict them again.
TEST(ResumablePoolTest, QueryNeverEvictsItsOwnSlots) {
  const Scenario sc = MakeScenario(ServingSpec(GraphFamily::kGrid, 935));
  const Graph& g = sc.dataset.graph;
  const auto matcher = PositionMatcher(g, sc.dataset.forest,
                                       *DefaultSimilarity(),
                                       sc.queries[0].sequence[0],
                                       MultiCategoryMode::kMaxSimilarity);

  ResumablePool pool;
  pool.PrepareServing(2);
  pool.BeginQuery();
  ResumableSlot* s0 = pool.FindOrCreate(g, 10);
  ResumableSlot* s1 = pool.FindOrCreate(g, 20);
  ASSERT_NE(s0, nullptr);
  ASSERT_NE(s1, nullptr);
  (void)RetrieveResumable(
      g, matcher, pool, *s0, [] { return Weight{0.5}; },
      [](const ExpansionCandidate&) {}, nullptr, nullptr);
  const size_t s0_settled = s0->settled.size();
  for (VertexId v = 30; v < 40; ++v) {
    EXPECT_EQ(pool.FindOrCreate(g, v), nullptr) << "source " << v;
  }
  EXPECT_EQ(pool.evictions(), 0);
  EXPECT_EQ(s0->source, 10);
  EXPECT_EQ(s1->source, 20);
  EXPECT_EQ(s0->settled.size(), s0_settled);
  EXPECT_EQ(pool.FindOrCreate(g, 10), s0);
  EXPECT_EQ(pool.FindOrCreate(g, 20), s1);

  // Next query: the touched bits are cleared, so a new source evicts.
  pool.PrepareServing(2);
  pool.BeginQuery();
  EXPECT_EQ(pool.FindOrCreate(g, 20), s1);
  ResumableSlot* s3 = pool.FindOrCreate(g, 30);
  EXPECT_EQ(s3, s0);
  EXPECT_EQ(pool.evictions(), 1);
  EXPECT_EQ(pool.FindOrCreate(g, 40), nullptr);

  // A zero bound keeps nothing.
  pool.PrepareServing(0);
  pool.BeginQuery();
  EXPECT_EQ(pool.FindOrCreate(g, 10), nullptr);
}

TEST(SharedQueryCacheTest, WarmStateChecksumSeparatesStructures) {
  const Scenario sc = MakeScenario(ServingSpec(GraphFamily::kCluster, 933));
  const Graph& g = sc.dataset.graph;
  const ChOracle ch = ChOracle::Build(g);
  EXPECT_EQ(WarmStateChecksum(g, &ch), WarmStateChecksum(g, &ch));
  EXPECT_NE(WarmStateChecksum(g, &ch), WarmStateChecksum(g, nullptr));
}

// The serving contract: one engine with an attached cache (prewarm snapshot
// included) replays the workload three times — cold on round 0, warm after —
// and every reply must be bit-identical to a cacheless engine's. The cache
// must actually engage (forward hits) for the exercise to mean anything.
TEST(XCacheServingTest, ColdAndWarmRepliesAreBitIdentical) {
  for (const GraphFamily family :
       {GraphFamily::kGrid, GraphFamily::kCluster, GraphFamily::kSmallWorld}) {
    const Scenario sc = MakeScenario(ServingSpec(family, 931));
    const Graph& g = sc.dataset.graph;
    const ChOracle ch = ChOracle::Build(g);
    const CategoryBucketIndex buckets = CategoryBucketIndex::Build(g, ch);

    BssrEngine baseline(g, sc.dataset.forest, &ch, &buckets);
    BssrEngine serving(g, sc.dataset.forest, &ch, &buckets);
    SharedQueryCache cache;
    serving.AttachSharedCache(&cache);
    std::vector<VertexId> prewarm;
    prewarm.reserve(static_cast<size_t>(g.num_pois()));
    for (PoiId p = 0; p < g.num_pois(); ++p) {
      prewarm.push_back(g.VertexOfPoi(p));
    }
    cache.SetSnapshot(std::make_shared<const FwdSnapshot>(
        BuildFwdSnapshot(buckets, prewarm, WarmStateChecksum(g, &ch))));
    ASSERT_NE(cache.snapshot(), nullptr);

    for (int round = 0; round < 3; ++round) {
      for (size_t qi = 0; qi < sc.queries.size(); ++qi) {
        const auto want = baseline.Run(sc.queries[qi]);
        const auto got = serving.Run(sc.queries[qi]);
        ASSERT_TRUE(want.ok() && got.ok());
        ExpectSameRoutes(*got, *want, sc.spec.name.c_str());
      }
    }
    EXPECT_GT(cache.Counters().fwd_hits, 0) << sc.spec.name;
  }
}

// Same replay pinned to the resumable backend: suspended searches persist
// across queries (reuses counted), results stay bit-identical, and the
// per-request opt-out reproduces cacheless behavior on the same engine.
TEST(XCacheServingTest, PersistentResumableSlotsStayBitIdentical) {
  const Scenario sc = MakeScenario(ServingSpec(GraphFamily::kCluster, 932));
  const Graph& g = sc.dataset.graph;
  const ChOracle ch = ChOracle::Build(g);
  const CategoryBucketIndex buckets = CategoryBucketIndex::Build(g, ch);

  BssrEngine baseline(g, sc.dataset.forest, &ch, &buckets);
  BssrEngine serving(g, sc.dataset.forest, &ch, &buckets);
  SharedQueryCache cache;
  serving.AttachSharedCache(&cache);

  QueryOptions opts;
  opts.retriever = RetrieverKind::kResume;
  for (int round = 0; round < 2; ++round) {
    for (const Query& q : sc.queries) {
      const auto want = baseline.Run(q, opts);
      const auto got = serving.Run(q, opts);
      ASSERT_TRUE(want.ok() && got.ok());
      ExpectSameRoutes(*got, *want, "resume round");
    }
  }
  EXPECT_GT(cache.Counters().resume_reuses, 0);

  // Opt-out: the very same engine, asked not to touch its cache, must also
  // match (and must not move the cache's counters).
  const SharedCacheCounters before = cache.Counters();
  QueryOptions opt_out = opts;
  opt_out.use_shared_cache = false;
  for (const Query& q : sc.queries) {
    const auto want = baseline.Run(q, opts);
    const auto got = serving.Run(q, opt_out);
    ASSERT_TRUE(want.ok() && got.ok());
    ExpectSameRoutes(*got, *want, "opt-out");
  }
  const SharedCacheCounters after = cache.Counters();
  EXPECT_EQ(after.fwd_hits, before.fwd_hits);
  EXPECT_EQ(after.fwd_misses, before.fwd_misses);
  EXPECT_EQ(after.resume_reuses, before.resume_reuses);
}

// QueryService end to end: the same repeated-source workload through a
// shared-cache service and a cacheless one must produce bit-identical
// results, the warm service must report cache activity in its metrics, and
// the cacheless one must report none.
TEST(XCacheServingTest, QueryServiceSharedCacheOnOffBitIdentical) {
  const Scenario sc = MakeScenario(ServingSpec(GraphFamily::kSmallWorld, 934));
  const Graph& g = sc.dataset.graph;
  const ChOracle ch = ChOracle::Build(g);
  const CategoryBucketIndex buckets = CategoryBucketIndex::Build(g, ch);

  std::vector<Query> workload;
  for (int round = 0; round < 3; ++round) {
    workload.insert(workload.end(), sc.queries.begin(), sc.queries.end());
  }

  ServiceConfig base;
  base.num_threads = 2;
  base.cache_capacity = 0;  // force engine runs: exercise the warm paths
  base.oracle = &ch;
  base.buckets = &buckets;

  ServiceConfig on = base;
  on.shared_query_cache = true;
  on.xcache_prewarm_pois = 64;
  ServiceConfig off = base;
  off.shared_query_cache = false;

  QueryService warm(g, sc.dataset.forest, on);
  QueryService cold(g, sc.dataset.forest, off);
  EXPECT_NE(warm.warm_snapshot(), nullptr);
  EXPECT_EQ(cold.warm_snapshot(), nullptr);

  const auto warm_results = warm.RunBatch(workload);
  const auto cold_results = cold.RunBatch(workload);
  ASSERT_EQ(warm_results.size(), cold_results.size());
  for (size_t i = 0; i < warm_results.size(); ++i) {
    ASSERT_TRUE(warm_results[i].ok() && cold_results[i].ok());
    ExpectSameRoutes(warm_results[i].ValueOrDie(),
                     cold_results[i].ValueOrDie(), "service");
  }

  const MetricsSnapshot wm = warm.Metrics();
  EXPECT_GT(wm.xcache_fwd_hits, 0);
  EXPECT_GT(wm.xcache_fwd_hit_rate, 0.0);
  EXPECT_GE(wm.xcache_resident_bytes, 0);
  const MetricsSnapshot cm = cold.Metrics();
  EXPECT_EQ(cm.xcache_fwd_hits + cm.xcache_fwd_misses, 0);
}

// A serving pool smaller than a query's source set: with two slots most
// expansions overflow to plain fresh searches, while the slots the query
// touched stay resumable across its expansions and across queries. The
// engine is set up as each QueryService worker sets up its own (a
// BssrEngine over the shared oracle and buckets with a private
// SharedQueryCache), and runs the workload twice. Every answer must be
// bit-identical to brute force and to a cacheless engine's.
TEST(XCacheServingTest, TwoSlotServiceMatchesBruteForce) {
  ScenarioSpec spec = ServingSpec(GraphFamily::kCluster, 936);
  spec.graph.target_vertices = 160;
  spec.pois.num_pois = 36;
  spec.workload.num_queries = 12;
  const Scenario sc = MakeScenario(spec);
  const Graph& g = sc.dataset.graph;
  const ChOracle ch = ChOracle::Build(g);
  const CategoryBucketIndex buckets = CategoryBucketIndex::Build(g, ch);

  BssrEngine serving(g, sc.dataset.forest, &ch, &buckets);
  SharedCacheConfig cache_config;
  cache_config.resume_slots = 2;
  SharedQueryCache cache(cache_config);
  serving.AttachSharedCache(&cache);
  BssrEngine cacheless(g, sc.dataset.forest);

  QueryOptions opts;
  opts.retriever = RetrieverKind::kResume;
  int64_t resume_runs = 0;
  int64_t overflow_runs = 0;
  for (int round = 0; round < 2; ++round) {
    for (size_t i = 0; i < sc.queries.size(); ++i) {
      const Query& q = sc.queries[i];
      const auto got = serving.Run(q, opts);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      const auto brute =
          BruteForceSkySr(g, sc.dataset.forest, q, QueryOptions());
      ASSERT_TRUE(brute.ok());
      EXPECT_TRUE(BitIdenticalSkylines(got->routes, *brute))
          << "round " << round << " query " << i << ": "
          << RenderSkyline(got->routes) << " vs " << RenderSkyline(*brute);
      const auto want = cacheless.Run(q);
      ASSERT_TRUE(want.ok());
      ExpectSameRoutes(*got, *want, "two-slot engine");
      resume_runs += got->stats.retriever_resume_runs;
      if (got->stats.retriever_resume_runs > 0) {
        overflow_runs += got->stats.mdijkstra_runs;
      }
    }
  }
  // Both paths ran: resumed slots, and fresh searches past the bound.
  EXPECT_GT(resume_runs, 0);
  EXPECT_GT(overflow_runs, 0);
  EXPECT_GT(cache.Counters().resume_reuses, 0);
}

}  // namespace
}  // namespace skysr
