// The Plan stage's exact feasibility precheck (Definition 3.4): a query with
// a position no PoI matches, or whose positions cannot take k distinct PoIs,
// returns the empty skyline without any search — through Run, RunGroup and
// a result-cached QueryService — while feasible queries are searched as
// before. Every answer is checked against brute force.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "baseline/brute_force.h"
#include "core/bssr_engine.h"
#include "graph/graph_builder.h"
#include "obs/explain.h"
#include "service/query_service.h"
#include "tests/test_util.h"

namespace skysr {
namespace {

using ::skysr::testing::ScoreVectorsNear;

// The paper's running example (Figures 1 & 2) plus a multi-category PoI
// (Bakery + Gift), a PoI-less leaf (Cafe) and a PoI-less tree (Nightlife):
//   Food { Asian, Italian, Bakery, Cafe }, Shop & Service { Gift, Hobby },
//   Arts & Entertainment, Nightlife { Bar }.
struct Fixture {
  CategoryForest forest;
  CategoryId food, asian, italian, bakery, cafe, shop, gift, hobby, arts,
      night, bar;
  Graph graph;
  static constexpr VertexId kVq = 0, kI = 1, kA = 2, kE = 3, kH = 4, kG = 5,
                            kBG = 6;

  explicit Fixture(bool with_extras = true) {
    CategoryForestBuilder fb;
    food = fb.AddRoot("Food");
    asian = fb.AddChild(food, "Asian");
    italian = fb.AddChild(food, "Italian");
    bakery = fb.AddChild(food, "Bakery");
    cafe = fb.AddChild(food, "Cafe");
    shop = fb.AddRoot("Shop & Service");
    gift = fb.AddChild(shop, "Gift");
    hobby = fb.AddChild(shop, "Hobby");
    arts = fb.AddRoot("Arts & Entertainment");
    night = fb.AddRoot("Nightlife");
    bar = fb.AddChild(night, "Bar");
    forest = std::move(fb.Build()).ValueOrDie();

    GraphBuilder gb;
    for (int i = 0; i < 7; ++i) gb.AddVertex();
    gb.AddEdge(kVq, kI, 1.0);
    gb.AddEdge(kVq, kA, 4.0);
    gb.AddEdge(kI, kE, 2.0);
    gb.AddEdge(kA, kE, 1.0);
    gb.AddEdge(kE, kH, 2.0);
    gb.AddEdge(kE, kG, 3.0);
    gb.AddEdge(kG, kBG, 1.5);
    gb.AddPoi(kI, {italian}, "Italian");
    gb.AddPoi(kA, {asian}, "Asian");
    gb.AddPoi(kE, {arts}, "A&E");
    gb.AddPoi(kH, {hobby}, "Hobby");
    gb.AddPoi(kG, {gift}, "Gift");
    if (with_extras) gb.AddPoi(kBG, {bakery, gift}, "Bakery & Gift");
    graph = std::move(gb.Build()).ValueOrDie();
  }
};

/// Similarity 1 inside the query category's subtree and 0 elsewhere — a
/// custom function under which same-tree categories need not match.
class SubtreeOnlySimilarity final : public SimilarityFunction {
 public:
  double Similarity(const CategoryForest& forest, CategoryId query_cat,
                    CategoryId poi_cat) const override {
    return forest.IsAncestorOrSelf(query_cat, poi_cat) ? 1.0 : 0.0;
  }
  std::string name() const override { return "subtree-only"; }
};

struct Case {
  std::string name;
  Query query;
  QueryOptions options;
  int position = -1;  // expected infeasible position; -1 = feasible
  std::string reason = "none";
};

CategoryPredicate Pred(CategoryId any, std::vector<CategoryId> all = {},
                       std::vector<CategoryId> none = {}) {
  CategoryPredicate p = CategoryPredicate::Single(any);
  p.all_of = std::move(all);
  p.none_of = std::move(none);
  return p;
}

Query MakeQuery(std::vector<CategoryPredicate> seq,
                std::optional<VertexId> dest = std::nullopt) {
  Query q;
  q.start = Fixture::kVq;
  q.sequence = std::move(seq);
  q.destination = dest;
  return q;
}

std::vector<Case> InfeasibleCases(const Fixture& fx) {
  std::vector<Case> out;
  // A plain position over the PoI-less tree, first / middle / last, each
  // with and without a destination.
  const CategoryPredicate empty = Pred(fx.bar);
  const std::vector<std::vector<CategoryPredicate>> placements = {
      {empty, Pred(fx.arts), Pred(fx.gift)},
      {Pred(fx.asian), empty, Pred(fx.gift)},
      {Pred(fx.asian), Pred(fx.arts), empty},
  };
  for (int at = 0; at < 3; ++at) {
    for (const bool dest : {false, true}) {
      Case c;
      c.name = "bar@" + std::to_string(at) + (dest ? "+dest" : "");
      c.query = MakeQuery(placements[static_cast<size_t>(at)],
                          dest ? std::optional<VertexId>(Fixture::kH)
                               : std::nullopt);
      c.position = at;
      c.reason = "zero_matches";
      out.push_back(std::move(c));
    }
  }
  // all_of: no Food PoI is also Arts.
  out.push_back({"all_of",
                 MakeQuery({Pred(fx.asian), Pred(fx.food, {fx.arts})}),
                 QueryOptions(), 1, "zero_matches"});
  // none_of: every Food match is excluded; with a destination.
  out.push_back({"none_of",
                 MakeQuery({Pred(fx.gift), Pred(fx.italian, {}, {fx.food})},
                           Fixture::kVq),
                 QueryOptions(), 1, "zero_matches"});
  // Average-similarity mode over the multi-category PoI set.
  Case avg{"average", MakeQuery({Pred(fx.night), Pred(fx.bakery)}),
           QueryOptions(), 0, "zero_matches"};
  avg.options.multi_category = MultiCategoryMode::kAverageSimilarity;
  out.push_back(std::move(avg));
  // Custom similarity: Cafe's subtree holds no PoI, though its tree does.
  Case custom{"custom_similarity",
              MakeQuery({Pred(fx.hobby), Pred(fx.cafe)}), QueryOptions(), 1,
              "zero_matches"};
  custom.options.similarity = std::make_shared<SubtreeOnlySimilarity>();
  out.push_back(std::move(custom));
  // Hall violations: three positions over the Shop tree's three PoIs are
  // fine, four are not; two positions whose only match is the same PoI.
  out.push_back({"hall_shop_tree",
                 MakeQuery({Pred(fx.gift), Pred(fx.hobby), Pred(fx.shop),
                            Pred(fx.gift)}),
                 QueryOptions(), 3, "distinct_pois"});
  out.push_back({"hall_all_of",
                 MakeQuery({Pred(fx.food, {fx.shop}), Pred(fx.arts),
                            Pred(fx.bakery, {fx.gift})},
                           Fixture::kE),
                 QueryOptions(), 2, "distinct_pois"});
  return out;
}

std::vector<Case> FeasibleCases(const Fixture& fx) {
  std::vector<Case> out;
  // The custom-similarity case under Eq. (6): Cafe matches every Food PoI.
  out.push_back({"cafe_wu_palmer",
                 MakeQuery({Pred(fx.hobby), Pred(fx.cafe)}), QueryOptions()});
  // Exactly k distinct matches: the Shop tree holds three PoIs.
  out.push_back({"exactly_k",
                 MakeQuery({Pred(fx.gift), Pred(fx.hobby), Pred(fx.shop)}),
                 QueryOptions()});
  // A one-match all_of position next to a position that shares its PoI.
  out.push_back({"all_of_one_match",
                 MakeQuery({Pred(fx.food, {fx.shop}), Pred(fx.gift)},
                           Fixture::kVq),
                 QueryOptions()});
  // Average mode, multi-category PoI matching the plain position.
  Case avg{"average_feasible", MakeQuery({Pred(fx.bakery), Pred(fx.hobby)}),
           QueryOptions()};
  avg.options.multi_category = MultiCategoryMode::kAverageSimilarity;
  out.push_back(std::move(avg));
  return out;
}

void ExpectCase(const Fixture& fx, const Case& c, const QueryResult& r) {
  SCOPED_TRACE(c.name);
  auto brute = BruteForceSkySr(fx.graph, fx.forest, c.query, c.options);
  ASSERT_TRUE(brute.ok()) << brute.status().ToString();
  EXPECT_TRUE(ScoreVectorsNear(r.routes, *brute));
  if (c.position >= 0) {
    EXPECT_TRUE(r.routes.empty());
    EXPECT_EQ(r.stats.precheck_infeasible, 1);
    EXPECT_EQ(r.stats.routes_enqueued, 0);
    EXPECT_EQ(r.stats.vertices_settled, 0);
  } else {
    EXPECT_FALSE(brute->empty());
    EXPECT_EQ(r.stats.precheck_infeasible, 0);
  }
  if (r.explain != nullptr) {
    EXPECT_EQ(r.explain->infeasible_position, c.position);
    EXPECT_EQ(r.explain->infeasible_reason, c.reason);
  }
}

std::vector<Case> AllCases(const Fixture& fx) {
  std::vector<Case> cases = InfeasibleCases(fx);
  for (Case& c : FeasibleCases(fx)) cases.push_back(std::move(c));
  return cases;
}

TEST(FeasibilityPrecheck, RunMatchesBruteForceWithoutSearching) {
  const Fixture fx;
  BssrEngine engine(fx.graph, fx.forest);
  for (Case c : AllCases(fx)) {
    for (const bool explain : {false, true}) {
      c.options.explain = explain;
      auto r = engine.Run(c.query, c.options);
      ASSERT_TRUE(r.ok()) << c.name << ": " << r.status().ToString();
      ExpectCase(fx, c, *r);
    }
  }
}

TEST(FeasibilityPrecheck, RunGroupMatchesRun) {
  const Fixture fx;
  BssrEngine engine(fx.graph, fx.forest);
  std::vector<Case> cases = AllCases(fx);
  std::vector<BssrEngine::GroupQuery> group;
  for (Case& c : cases) {
    c.options.explain = true;
    group.push_back({&c.query, &c.options});
  }
  const auto results = engine.RunGroup(group);
  ASSERT_EQ(results.size(), cases.size());
  for (size_t i = 0; i < cases.size(); ++i) {
    ASSERT_TRUE(results[i].ok()) << cases[i].name;
    ExpectCase(fx, cases[i], *results[i]);
  }
}

TEST(FeasibilityPrecheck, ServiceWithResultCacheAnswersEmpty) {
  const Fixture fx;
  ServiceConfig cfg;
  cfg.num_threads = 2;
  cfg.cache_capacity = 64;
  QueryService service(fx.graph, fx.forest, cfg);
  const std::vector<Case> cases = AllCases(fx);
  int64_t cacheable = 0;  // custom similarities bypass the result cache
  for (int round = 0; round < 2; ++round) {
    for (const Case& c : cases) {
      auto r = service.Submit(c.query, c.options).get();
      ASSERT_TRUE(r.ok()) << c.name << ": " << r.status().ToString();
      auto brute = BruteForceSkySr(fx.graph, fx.forest, c.query, c.options);
      ASSERT_TRUE(brute.ok());
      EXPECT_TRUE(ScoreVectorsNear(r->routes, *brute)) << c.name;
      EXPECT_EQ(r->routes.empty(), c.position >= 0) << c.name;
      cacheable += round == 0 && c.options.similarity == nullptr;
    }
  }
  EXPECT_EQ(service.Metrics().cache_hits, cacheable);
}

// The paper's running example keeps its hand-computed skyline and is
// judged feasible: <Asian, A&E, Gift> from vq -> (5, 5/9), (6, 1/3), (8, 0).
TEST(FeasibilityPrecheck, PaperRunningExampleIsFeasible) {
  const Fixture fx(/*with_extras=*/false);
  BssrEngine engine(fx.graph, fx.forest);
  QueryOptions options;
  options.explain = true;
  auto r = engine.Run(
      MakeSimpleQuery(Fixture::kVq, {fx.asian, fx.arts, fx.gift}), options);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->stats.precheck_infeasible, 0);
  EXPECT_EQ(r->explain->infeasible_position, -1);
  EXPECT_EQ(r->explain->infeasible_reason, "none");
  ASSERT_EQ(r->routes.size(), 3u);
  EXPECT_DOUBLE_EQ(r->routes[0].scores.length, 5.0);
  EXPECT_NEAR(r->routes[0].scores.semantic, 5.0 / 9.0, 1e-12);
  EXPECT_DOUBLE_EQ(r->routes[2].scores.length, 8.0);
  EXPECT_NEAR(r->routes[2].scores.semantic, 0.0, 1e-12);
}

TEST(FeasibilityPrecheck, ExplainRendersVerdict) {
  const Fixture fx;
  BssrEngine engine(fx.graph, fx.forest);
  QueryOptions options;
  options.explain = true;
  auto r = engine.Run(MakeQuery({Pred(fx.asian), Pred(fx.bar)}), options);
  ASSERT_TRUE(r.ok());
  EXPECT_NE(r->explain->ToTreeString().find(
                "precheck: infeasible at [1] (zero_matches)"),
            std::string::npos);
  EXPECT_NE(r->explain->ToJson().find("\"infeasible_position\":1,"
                                      "\"infeasible_reason\":\"zero_matches\""),
            std::string::npos);
  EXPECT_NE(r->stats.ToString().find("precheck_infeasible=1"),
            std::string::npos);
}

}  // namespace
}  // namespace skysr
