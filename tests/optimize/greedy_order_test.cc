// Property tests for the cardinality-greedy wide-join seeding pass
// (optimize/greedy_order.h): permutation totality, determinism with
// smallest-index tie-breaking, optimality vs exhaustive enumeration on
// small cases, zero-cardinality robustness, the planted-skew small-first
// guarantee, and the planner's threshold handoff.

#include "optimize/greedy_order.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>

#include "optimize/planner.h"
#include "testing/workload_gen.h"

namespace ajr {
namespace {

// Star: table 0 is the center, every other table joins it on "k".
JoinQuery StarQuery(size_t n) {
  JoinQuery q;
  for (size_t t = 0; t < n; ++t) {
    q.tables.push_back({"a" + std::to_string(t), "T" + std::to_string(t)});
  }
  for (size_t t = 1; t < n; ++t) q.edges.push_back({0, "k", t, "k", t - 1});
  q.local_predicates.assign(n, nullptr);
  q.output = {{0, "k"}};
  return q;
}

JoinQuery ChainQuery(size_t n) {
  JoinQuery q;
  for (size_t t = 0; t < n; ++t) {
    q.tables.push_back({"a" + std::to_string(t), "T" + std::to_string(t)});
  }
  for (size_t t = 1; t < n; ++t) q.edges.push_back({t - 1, "k", t, "k", t - 1});
  q.local_predicates.assign(n, nullptr);
  q.output = {{0, "k"}};
  return q;
}

CostInputs MakeInputs(const JoinQuery* q, std::vector<double> card,
                      std::vector<double> edge_sel) {
  CostInputs in;
  in.query = q;
  in.tables.resize(card.size());
  for (size_t i = 0; i < card.size(); ++i) {
    in.tables[i].cardinality = card[i];
    in.tables[i].local_sel = 1.0;
    in.tables[i].index_height = 2;
  }
  in.edge_sel = std::move(edge_sel);
  return in;
}

bool IsPermutation(const std::vector<size_t>& order, size_t n) {
  if (order.size() != n) return false;
  std::vector<size_t> sorted = order;
  std::sort(sorted.begin(), sorted.end());
  for (size_t i = 0; i < n; ++i) {
    if (sorted[i] != i) return false;
  }
  return true;
}

// Eq 1 cost of a full order with the driving scan reading C*S_LP entries.
double OrderCost(const CostInputs& in, const std::vector<size_t>& order) {
  const double cleg = in.tables[order[0]].cardinality * in.tables[order[0]].local_sel;
  return PipelineCost(in, order, cleg, cleg);
}

TEST(GreedyOrderTest, PermutationOfAllLegsAtWidth20) {
  for (bool star : {true, false}) {
    JoinQuery q = star ? StarQuery(20) : ChainQuery(20);
    std::vector<double> card(20), sel(19);
    for (size_t t = 0; t < 20; ++t) card[t] = 10.0 + 37.0 * static_cast<double>((t * 7) % 13);
    for (size_t e = 0; e < 19; ++e) sel[e] = 0.005 + 0.01 * static_cast<double>(e % 5);
    auto in = MakeInputs(&q, card, sel);
    EXPECT_TRUE(IsPermutation(GreedyCardinalityOrder(in), 20));
    EXPECT_TRUE(IsPermutation(AntiGreedyCardinalityOrder(in), 20));
  }
}

TEST(GreedyOrderTest, DeterministicWithSmallestIndexTies) {
  // All cardinalities and selectivities equal: every round is a tie, so the
  // order must be the identity (smallest index wins each round) — and two
  // calls must agree exactly.
  JoinQuery q = StarQuery(8);
  auto in = MakeInputs(&q, std::vector<double>(8, 50.0),
                       std::vector<double>(7, 0.02));
  std::vector<size_t> expect = {0, 1, 2, 3, 4, 5, 6, 7};
  EXPECT_EQ(GreedyCardinalityOrder(in), expect);
  EXPECT_EQ(GreedyCardinalityOrder(in), GreedyCardinalityOrder(in));
  EXPECT_EQ(AntiGreedyCardinalityOrder(in), AntiGreedyCardinalityOrder(in));
}

TEST(GreedyOrderTest, MatchesExhaustiveEnumerationOnSmallCases) {
  // 2- and 3-table cases with monotone cardinalities: greedy must land on
  // the same Eq 1 cost as trying every permutation.
  {
    JoinQuery q = ChainQuery(2);
    auto in = MakeInputs(&q, {10, 1000}, {0.01});
    std::vector<size_t> greedy = GreedyCardinalityOrder(in);
    double best = std::numeric_limits<double>::infinity();
    std::vector<size_t> perm = {0, 1};
    do {
      best = std::min(best, OrderCost(in, perm));
    } while (std::next_permutation(perm.begin(), perm.end()));
    EXPECT_NEAR(OrderCost(in, greedy), best, best * 1e-12);
  }
  {
    JoinQuery q = ChainQuery(3);
    auto in = MakeInputs(&q, {10, 100, 1000}, {0.01, 0.01});
    std::vector<size_t> greedy = GreedyCardinalityOrder(in);
    double best = std::numeric_limits<double>::infinity();
    std::vector<size_t> perm = {0, 1, 2};
    do {
      best = std::min(best, OrderCost(in, perm));
    } while (std::next_permutation(perm.begin(), perm.end()));
    EXPECT_NEAR(OrderCost(in, greedy), best, best * 1e-12);
  }
  {
    JoinQuery q = StarQuery(3);
    auto in = MakeInputs(&q, {20, 400, 40}, {0.02, 0.02});
    std::vector<size_t> greedy = GreedyCardinalityOrder(in);
    double best = std::numeric_limits<double>::infinity();
    std::vector<size_t> perm = {0, 1, 2};
    do {
      best = std::min(best, OrderCost(in, perm));
    } while (std::next_permutation(perm.begin(), perm.end()));
    EXPECT_NEAR(OrderCost(in, greedy), best, best * 1e-12);
  }
}

TEST(GreedyOrderTest, RobustToZeroCardinalityLegs) {
  JoinQuery q = StarQuery(6);
  auto in = MakeInputs(&q, {30, 0, 25, 0, 25, 30}, std::vector<double>(5, 0.05));
  std::vector<size_t> order = GreedyCardinalityOrder(in);
  ASSERT_TRUE(IsPermutation(order, 6));
  // A zero-cardinality leg has the minimum filtered cardinality; the
  // smallest-index one must drive.
  EXPECT_EQ(order[0], 1u);
  EXPECT_TRUE(IsPermutation(AntiGreedyCardinalityOrder(in), 6));
  // Zero local selectivity everywhere: still total and deterministic.
  for (auto& t : in.tables) t.local_sel = 0.0;
  EXPECT_TRUE(IsPermutation(GreedyCardinalityOrder(in), 6));
  EXPECT_EQ(GreedyCardinalityOrder(in), GreedyCardinalityOrder(in));
}

TEST(GreedyOrderTest, PlantedSkewPutsSmallLegFirst) {
  // Star center (0) with a fat dimension (1: JC 10 per row) and a skinny
  // one (2: JC 0.1 per row). Greedy must probe the skinny leg before the
  // fat one; anti-greedy must do the opposite; and the greedy order must be
  // strictly cheaper under Eq 1.
  JoinQuery q = StarQuery(3);
  auto in = MakeInputs(&q, {100, 1000, 10}, {0.01, 0.01});
  std::vector<size_t> greedy = GreedyCardinalityOrder(in);
  std::vector<size_t> anti = AntiGreedyCardinalityOrder(in);
  EXPECT_EQ(greedy, (std::vector<size_t>{2, 0, 1}));
  ASSERT_TRUE(IsPermutation(anti, 3));
  // Anti places the fat leg as early as connectivity allows.
  EXPECT_LT(std::find(greedy.begin(), greedy.end(), 2u) - greedy.begin(),
            std::find(greedy.begin(), greedy.end(), 1u) - greedy.begin());
  EXPECT_LT(std::find(anti.begin(), anti.end(), 1u) - anti.begin(),
            std::find(anti.begin(), anti.end(), 2u) - anti.begin());
  EXPECT_LT(OrderCost(in, greedy), OrderCost(in, anti));
}

TEST(GreedyOrderTest, AntiGreedyPrefixesStayConnected) {
  // The corruption order must never manufacture a cross product: every leg
  // after the first needs a join edge into the already-placed prefix.
  JoinQuery q = StarQuery(16);
  std::vector<double> card(16), sel(15);
  for (size_t t = 0; t < 16; ++t) card[t] = 5.0 + static_cast<double>(97 * t % 61);
  for (size_t e = 0; e < 15; ++e) sel[e] = 0.01 + 0.005 * static_cast<double>(e % 4);
  auto in = MakeInputs(&q, card, sel);
  for (const auto& order : {GreedyCardinalityOrder(in), AntiGreedyCardinalityOrder(in)}) {
    ASSERT_TRUE(IsPermutation(order, 16));
    uint64_t mask = uint64_t{1} << order[0];
    for (size_t i = 1; i < order.size(); ++i) {
      EXPECT_NE(ChooseProbeEdge(in, order[i], mask), SIZE_MAX)
          << "leg " << order[i] << " at position " << i << " is disconnected";
      mask |= uint64_t{1} << order[i];
    }
  }
}

TEST(GreedyOrderTest, EstimatedJoinOutputMatchesHandComputation) {
  JoinQuery q = ChainQuery(3);
  auto in = MakeInputs(&q, {10, 100, 1000}, {0.02, 0.01});
  // Driving 0: 10 rows; JC(1|0) = 100*0.02 = 2; JC(2|0,1) = 1000*0.01 = 10.
  EXPECT_NEAR(EstimatedJoinOutput(in, {0, 1, 2}), 10 * 2 * 10, 1e-9);
}

TEST(GreedyOrderTest, PlannerSeedsWideQueriesWithGreedyOrder) {
  // Above PlannerOptions::greedy_seed_threshold the planner's initial order
  // must be exactly the cardinality-greedy order over its own estimates.
  ajr::testing::WorkloadSpec spec;
  uint64_t seed = 1;
  for (;; ++seed) {
    spec = ajr::testing::GenerateWorkload(
        seed, ajr::testing::GeneratorOptions::WideProfile());
    if (spec.tables.size() >= 10) break;
    ASSERT_LT(seed, 50u) << "no >=10-table wide spec in the first seeds";
  }
  auto catalog = spec.Materialize();
  ASSERT_TRUE(catalog.ok()) << catalog.status().ToString();
  Planner planner(catalog->get());
  auto plan = planner.Plan(spec.query);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_EQ((*plan)->initial_order,
            GreedyCardinalityOrder((*plan)->EstimatedCostInputs()));
  EXPECT_TRUE(IsPermutation((*plan)->initial_order, spec.tables.size()));
  EXPECT_GT((*plan)->est_cost, 0.0);
}

}  // namespace
}  // namespace ajr
