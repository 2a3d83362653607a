// Workload substrate: road-network generation, PoI assignment, dataset
// descriptors, query generation — determinism, connectivity, skew shapes.

#include <gtest/gtest.h>

#include <fstream>
#include <unordered_map>

#include "category/taxonomy_factory.h"
#include "scenario/scenario.h"
#include "workload/dataset.h"
#include "workload/poi_assignment.h"
#include "workload/query_gen.h"
#include "graph/dijkstra.h"
#include "graph/graph_builder.h"
#include "workload/road_network_gen.h"

namespace skysr {
namespace {

TEST(RoadNetworkGenTest, ConnectedAndRoadLike) {
  RoadNetworkParams params;
  params.target_vertices = 2000;
  params.seed = 11;
  const Graph g = MakeRoadNetwork(params);
  EXPECT_GT(g.num_vertices(), 1200);  // holes trim some
  EXPECT_LE(g.num_vertices(), 2100);
  EXPECT_TRUE(g.IsConnected());
  EXPECT_TRUE(g.has_coordinates());
  // Road networks have low average degree (2..4 per direction).
  const double avg_degree =
      2.0 * static_cast<double>(g.num_edges()) /
      static_cast<double>(g.num_vertices());
  EXPECT_GT(avg_degree, 2.0);
  EXPECT_LT(avg_degree, 5.0);
  // Weights are positive and roughly Euclidean-scaled.
  for (const Neighbor& nb : g.OutEdges(0)) EXPECT_GT(nb.weight, 0);
}

TEST(RoadNetworkGenTest, DeterministicPerSeed) {
  RoadNetworkParams params;
  params.target_vertices = 500;
  params.seed = 21;
  const Graph a = MakeRoadNetwork(params);
  const Graph b = MakeRoadNetwork(params);
  ASSERT_EQ(a.num_vertices(), b.num_vertices());
  ASSERT_EQ(a.num_edges(), b.num_edges());
  for (VertexId v = 0; v < a.num_vertices(); v += 37) {
    EXPECT_DOUBLE_EQ(a.X(v), b.X(v));
    ASSERT_EQ(a.OutDegree(v), b.OutDegree(v));
  }
  params.seed = 22;
  const Graph c = MakeRoadNetwork(params);
  EXPECT_NE(a.num_vertices(), c.num_vertices());
}

TEST(PoiAssignmentTest, ZipfBiasShowsInCategoryCounts) {
  RoadNetworkParams rp;
  rp.target_vertices = 900;
  const Graph base = MakeRoadNetwork(rp);
  const CategoryForest forest = MakeCalLikeForest();
  PoiAssignmentParams pp;
  pp.num_pois = 4000;
  pp.zipf_theta = 1.0;
  const auto pois = GeneratePoiPoints(base, forest, pp);
  ASSERT_EQ(pois.size(), 4000u);
  std::unordered_map<CategoryId, int> counts;
  for (const auto& p : pois) ++counts[p.categories[0]];
  int max_count = 0;
  for (const auto& [c, n] : counts) max_count = std::max(max_count, n);
  // Heavily biased: the most popular leaf holds far more than 1/63.
  EXPECT_GT(max_count, 4000 / 63 * 4);
  // All categories are leaves of the forest.
  for (const auto& p : pois) {
    EXPECT_TRUE(forest.IsLeaf(p.categories[0]));
    EXPECT_FALSE(p.name.empty());
  }
}

TEST(PoiAssignmentTest, MultiCategoryFractionRespected) {
  RoadNetworkParams rp;
  rp.target_vertices = 400;
  const Graph base = MakeRoadNetwork(rp);
  const CategoryForest forest = MakeCalLikeForest();
  PoiAssignmentParams pp;
  pp.num_pois = 1000;
  pp.multi_category_fraction = 0.4;
  const auto pois = GeneratePoiPoints(base, forest, pp);
  int multi = 0;
  for (const auto& p : pois) {
    if (p.categories.size() > 1) {
      ++multi;
      EXPECT_NE(forest.TreeOf(p.categories[0]),
                forest.TreeOf(p.categories[1]));
    }
  }
  EXPECT_GT(multi, 250);
  EXPECT_LT(multi, 550);
}

TEST(DatasetTest, SpecsPreservePaperRatios) {
  const DatasetSpec tokyo = TokyoLikeSpec(0.01);
  EXPECT_NEAR(static_cast<double>(tokyo.num_pois) /
                  static_cast<double>(tokyo.road_vertices),
              174421.0 / 401893.0, 0.01);
  const DatasetSpec cal = CalLikeSpec(0.1);
  EXPECT_NEAR(static_cast<double>(cal.num_pois) /
                  static_cast<double>(cal.road_vertices),
              87365.0 / 21048.0, 0.05);
  EXPECT_EQ(cal.forest, ForestKind::kCalLike);
  // Tokyo spreads PoIs; NYC/Cal concentrate them (Figure 4 narrative).
  EXPECT_LT(TokyoLikeSpec().cluster_fraction, NycLikeSpec().cluster_fraction);
}

TEST(DatasetTest, MakeDatasetProducesQueryableBundle) {
  DatasetSpec spec = CalLikeSpec(0.02);  // ~420 road vertices, ~1.7k PoIs
  spec.seed = 77;
  const Dataset ds = MakeDataset(spec);
  EXPECT_TRUE(ds.graph.IsConnected());
  EXPECT_GT(ds.graph.num_pois(), 1000);
  EXPECT_EQ(ds.forest.num_trees(), 7);
  // Every PoI has a valid leaf category.
  for (PoiId p = 0; p < ds.graph.num_pois(); p += 97) {
    EXPECT_TRUE(ds.forest.Valid(ds.graph.PoiPrimaryCategory(p)));
  }
}

TEST(OneWayStreetsTest, StaysStronglyConnected) {
  RoadNetworkParams rp;
  rp.target_vertices = 600;
  rp.seed = 55;
  const Graph undirected = MakeRoadNetwork(rp);
  const Graph g = ApplyOneWayStreets(undirected, 0.5, 77);
  EXPECT_TRUE(g.directed());
  EXPECT_EQ(g.num_vertices(), undirected.num_vertices());
  // Some streets became one-way (fewer stored arcs than 2x streets)...
  EXPECT_LT(g.num_edges(), 2 * undirected.num_edges());
  EXPECT_GT(g.num_edges(), undirected.num_edges());
  // ...yet every vertex is reachable in BOTH directions.
  const Graph rev = ReverseOf(g);
  const auto fwd = SingleSourceDistances(g, 0);
  const auto bwd = SingleSourceDistances(rev, 0);
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    EXPECT_NE(fwd.dist[static_cast<size_t>(v)], kInfWeight) << v;
    EXPECT_NE(bwd.dist[static_cast<size_t>(v)], kInfWeight) << v;
  }
}

TEST(OneWayStreetsTest, DatasetSpecProducesDirectedDataset) {
  DatasetSpec spec = CalLikeSpec(0.02);
  spec.one_way_fraction = 0.4;
  spec.seed = 56;
  const Dataset ds = MakeDataset(spec);
  EXPECT_TRUE(ds.graph.directed());
  EXPECT_GT(ds.graph.num_pois(), 1000);
}

TEST(QueryGenTest, RespectsConstraints) {
  DatasetSpec spec = CalLikeSpec(0.02);
  spec.seed = 78;
  const Dataset ds = MakeDataset(spec);
  QueryGenParams qp;
  qp.count = 50;
  qp.sequence_size = 3;
  qp.seed = 5;
  const auto queries = GenerateQueries(ds, qp);
  ASSERT_EQ(queries.size(), 50u);
  for (const Query& q : queries) {
    ASSERT_EQ(q.size(), 3);
    EXPECT_GE(q.start, 0);
    EXPECT_LT(q.start, ds.graph.num_vertices());
    std::vector<TreeId> trees;
    for (const auto& pred : q.sequence) {
      ASSERT_EQ(pred.any_of.size(), 1u);
      const TreeId t = ds.forest.TreeOf(pred.any_of[0]);
      for (TreeId u : trees) EXPECT_NE(t, u);
      trees.push_back(t);
    }
  }
  // Determinism.
  const auto again = GenerateQueries(ds, qp);
  for (size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(queries[i].start, again[i].start);
    for (int j = 0; j < queries[i].size(); ++j) {
      EXPECT_EQ(queries[i].sequence[static_cast<size_t>(j)].any_of[0],
                again[i].sequence[static_cast<size_t>(j)].any_of[0]);
    }
  }
}

// --- Workload file round-trips -------------------------------------------

void ExpectSameQueries(const std::vector<Query>& a,
                       const std::vector<Query>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].start, b[i].start) << "query " << i;
    EXPECT_EQ(a[i].destination, b[i].destination) << "query " << i;
    ASSERT_EQ(a[i].size(), b[i].size()) << "query " << i;
    for (size_t j = 0; j < a[i].sequence.size(); ++j) {
      EXPECT_EQ(a[i].sequence[j].any_of, b[i].sequence[j].any_of);
      EXPECT_EQ(a[i].sequence[j].all_of, b[i].sequence[j].all_of);
      EXPECT_EQ(a[i].sequence[j].none_of, b[i].sequence[j].none_of);
    }
  }
}

TEST(WorkloadFileTest, ComplexPredicatesRoundTripOnGeneratedWorkloads) {
  // A scenario workload with every predicate feature enabled: multi-any_of
  // disjunctions, all_of conjunctions, none_of exclusions, destinations.
  ScenarioSpec spec;
  spec.graph.target_vertices = 80;
  spec.taxonomy.num_trees = 4;
  spec.pois.num_pois = 30;
  spec.pois.multi_category_rate = 0.4;
  spec.workload.num_queries = 120;
  spec.workload.max_sequence = 4;
  spec.workload.multi_any_rate = 0.5;
  spec.workload.all_of_rate = 0.4;
  spec.workload.none_of_rate = 0.4;
  spec.workload.destination_rate = 0.4;
  const Scenario sc = MakeScenario(spec);
  // The mix must actually contain complex predicates, or this test is vacuous.
  int complex = 0;
  for (const Query& q : sc.queries) {
    for (const CategoryPredicate& p : q.sequence) {
      if (p.any_of.size() > 1 || !p.all_of.empty() || !p.none_of.empty()) {
        ++complex;
      }
    }
  }
  ASSERT_GT(complex, 20);

  const std::string path = ::testing::TempDir() + "complex_workload.txt";
  ASSERT_TRUE(WriteWorkloadFile(path, sc.dataset, sc.queries).ok());
  auto loaded = LoadWorkloadFile(path, sc.dataset);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ExpectSameQueries(sc.queries, *loaded);
}

TEST(WorkloadFileTest, HandwrittenComplexPositionsParse) {
  ScenarioSpec spec;
  spec.graph.target_vertices = 20;
  spec.taxonomy.num_trees = 3;
  spec.taxonomy.max_levels = 2;
  const Scenario sc = MakeScenario(spec);
  const CategoryForest& forest = sc.dataset.forest;
  const std::string a = forest.Name(forest.RootOf(0));
  const std::string b = forest.Name(forest.RootOf(1));
  const std::string c = forest.Name(forest.RootOf(2));

  const std::string path = ::testing::TempDir() + "handwritten_workload.txt";
  {
    std::ofstream out(path);
    out << "# comment\n\n";
    // Whitespace around terms and prefixes must be tolerated.
    out << "3|7| " << a << " , +" << b << " , ! " << c << " ;" << b << "\n";
  }
  auto loaded = LoadWorkloadFile(path, sc.dataset);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ(loaded->size(), 1u);
  const Query& q = (*loaded)[0];
  EXPECT_EQ(q.start, 3);
  EXPECT_EQ(q.destination, std::optional<VertexId>(7));
  ASSERT_EQ(q.size(), 2);
  EXPECT_EQ(q.sequence[0].any_of,
            std::vector<CategoryId>{forest.RootOf(0)});
  EXPECT_EQ(q.sequence[0].all_of,
            std::vector<CategoryId>{forest.RootOf(1)});
  EXPECT_EQ(q.sequence[0].none_of,
            std::vector<CategoryId>{forest.RootOf(2)});
  EXPECT_EQ(q.sequence[1].any_of,
            std::vector<CategoryId>{forest.RootOf(1)});
}

TEST(WorkloadFileTest, CategorySequenceTextRoundTrips) {
  // The third field of every written line is exactly what `skysr_cli query
  // --categories` accepts; parsed alone it must give back the query's
  // predicates, so the CLI and the file reader cannot drift apart.
  ScenarioSpec spec;
  spec.graph.target_vertices = 80;
  spec.taxonomy.num_trees = 4;
  spec.pois.num_pois = 30;
  spec.workload.num_queries = 60;
  spec.workload.max_sequence = 4;
  spec.workload.multi_any_rate = 0.5;
  spec.workload.all_of_rate = 0.4;
  spec.workload.none_of_rate = 0.4;
  const Scenario sc = MakeScenario(spec);
  const std::string path = ::testing::TempDir() + "sequence_text.txt";
  ASSERT_TRUE(WriteWorkloadFile(path, sc.dataset, sc.queries).ok());

  std::ifstream in(path);
  std::vector<Query> parsed;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    auto sequence = ParseCategorySequence(
        std::string_view(line).substr(line.rfind('|') + 1), sc.dataset.forest);
    ASSERT_TRUE(sequence.ok()) << line << ": " << sequence.status().ToString();
    Query q = sc.queries[parsed.size()];
    q.sequence = std::move(*sequence);
    parsed.push_back(std::move(q));
  }
  ExpectSameQueries(sc.queries, parsed);

  const CategoryForest& forest = sc.dataset.forest;
  const std::string a = forest.Name(forest.RootOf(0));
  const std::string b = forest.Name(forest.RootOf(1));
  auto mixed = ParseCategorySequence(a + "," + b + ",+" + a + ";!" + a + "," +
                                         b,
                                     forest);
  ASSERT_TRUE(mixed.ok()) << mixed.status().ToString();
  ASSERT_EQ(mixed->size(), 2u);
  EXPECT_EQ((*mixed)[0].any_of,
            (std::vector<CategoryId>{forest.RootOf(0), forest.RootOf(1)}));
  EXPECT_EQ((*mixed)[0].all_of, std::vector<CategoryId>{forest.RootOf(0)});
  EXPECT_EQ((*mixed)[1].none_of, std::vector<CategoryId>{forest.RootOf(0)});
  EXPECT_EQ((*mixed)[1].any_of, std::vector<CategoryId>{forest.RootOf(1)});

  EXPECT_FALSE(ParseCategorySequence("", forest).ok());
  EXPECT_FALSE(ParseCategorySequence(a + ";", forest).ok());
  EXPECT_FALSE(ParseCategorySequence("+" + a, forest).ok());
  const auto unknown = ParseCategorySequence(a + ",NoSuchCategory", forest);
  ASSERT_FALSE(unknown.ok());
  EXPECT_NE(unknown.status().message().find("'NoSuchCategory'"),
            std::string::npos);
}

TEST(WorkloadFileTest, RejectsPositionsWithoutAnyOf) {
  ScenarioSpec spec;
  spec.graph.target_vertices = 20;
  const Scenario sc = MakeScenario(spec);
  const std::string name =
      sc.dataset.forest.Name(sc.dataset.forest.RootOf(0));
  const std::string path = ::testing::TempDir() + "bad_workload.txt";
  std::ofstream(path) << "0|-|+" << name << "\n";
  const auto loaded = LoadWorkloadFile(path, sc.dataset);
  EXPECT_FALSE(loaded.ok());
}

TEST(WorkloadFileTest, WriterRejectsUnrepresentableNames) {
  CategoryForestBuilder fb;
  fb.AddRoot("Food, Drink");  // ',' collides with the term separator
  auto forest = fb.Build();
  ASSERT_TRUE(forest.ok());
  GraphBuilder gb;
  const VertexId u = gb.AddVertex();
  const VertexId v = gb.AddVertex();
  gb.AddEdge(u, v, 1.0);
  auto graph = gb.Build();
  ASSERT_TRUE(graph.ok());
  Dataset ds;
  ds.name = "bad-names";
  ds.graph = std::move(*graph);
  ds.forest = std::move(*forest);
  const std::vector<Query> queries = {MakeSimpleQuery(0, {CategoryId{0}})};
  const std::string path = ::testing::TempDir() + "unrepresentable.txt";
  const Status st = WriteWorkloadFile(path, ds, queries);
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);

  // A position without any_of cannot be loaded back, so the writer refuses
  // it up front.
  Query no_any;
  no_any.start = 0;
  no_any.sequence.emplace_back();
  no_any.sequence[0].all_of.push_back(0);
  const Status st2 =
      WriteWorkloadFile(path, ds, std::vector<Query>{no_any});
  EXPECT_FALSE(st2.ok());
  EXPECT_EQ(st2.code(), StatusCode::kInvalidArgument);
}

TEST(WorkloadFileTest, SimpleQueriesKeepTheLegacyFormat) {
  DatasetSpec spec = CalLikeSpec(0.02);
  spec.seed = 91;
  const Dataset ds = MakeDataset(spec);
  QueryGenParams qp;
  qp.count = 10;
  qp.sequence_size = 3;
  const auto queries = GenerateQueries(ds, qp);
  const std::string path = ::testing::TempDir() + "legacy_workload.txt";
  ASSERT_TRUE(WriteWorkloadFile(path, ds, queries).ok());
  // No grammar extensions leak into plain files: every data line is the
  // original start|dest|A;B;C shape.
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    EXPECT_EQ(line.find(','), std::string::npos) << line;
    EXPECT_EQ(line.find('+'), std::string::npos) << line;
    EXPECT_EQ(line.find('!'), std::string::npos) << line;
  }
  auto loaded = LoadWorkloadFile(path, ds);
  ASSERT_TRUE(loaded.ok());
  ExpectSameQueries(queries, *loaded);
}

TEST(QueryGenTest, PopularPoolDrawsFrequentCategories) {
  DatasetSpec spec = CalLikeSpec(0.02);
  spec.seed = 79;
  const Dataset ds = MakeDataset(spec);
  // Count PoIs per category.
  std::unordered_map<CategoryId, int64_t> counts;
  for (PoiId p = 0; p < ds.graph.num_pois(); ++p) {
    ++counts[ds.graph.PoiPrimaryCategory(p)];
  }
  QueryGenParams qp;
  qp.count = 30;
  qp.sequence_size = 2;
  qp.popular_pool = 10;
  const auto queries = GenerateQueries(ds, qp);
  // Every drawn category should have a healthy number of PoIs.
  const int64_t median_count =
      static_cast<int64_t>(ds.graph.num_pois()) / 63;
  for (const Query& q : queries) {
    for (const auto& pred : q.sequence) {
      EXPECT_GE(counts[pred.any_of[0]], median_count);
    }
  }
}

}  // namespace
}  // namespace skysr
