// Randomized property suite: for randomly generated schemas, data, join
// graphs (chains, stars, and CYCLES), predicates, and index availability,
// the pipelined executor — static or under maximally aggressive adaptation —
// must produce exactly the reference executor's result multiset.
//
// This is the repository's broadest correctness net: it exercises
// multi-range index scans, scan-probe fallbacks (missing indexes), the
// cyclic-join-graph path (Sec 3.3's composite-rank caveat: extra edges are
// applied as residual join predicates), positional predicates under forced
// driving switches, and cursor resume on re-promotion.

#include <gtest/gtest.h>

#include "common/random.h"
#include "exec/pipeline_executor.h"
#include "exec/reference_executor.h"
#include "optimize/planner.h"
#include "testing/oracle.h"

namespace ajr {
namespace {

struct RandomWorld {
  Catalog catalog;
  JoinQuery query;
};

// Builds a random 3-5 table world and a valid connected query over it.
std::unique_ptr<RandomWorld> BuildWorld(uint64_t seed) {
  Rng rng(seed);
  auto world = std::make_unique<RandomWorld>();
  const size_t num_tables = 3 + rng.NextUint64(3);

  // Every table: key column k (join domain 0..19), payload v (0..49),
  // grp (0..4). Cardinalities vary so rank orders differ.
  for (size_t t = 0; t < num_tables; ++t) {
    std::string name = "t" + std::to_string(t);
    auto entry = world->catalog.CreateTable(
        name, Schema({{"k", DataType::kInt64},
                      {"v", DataType::kInt64},
                      {"grp", DataType::kInt64}}));
    EXPECT_TRUE(entry.ok());
    size_t rows = 30 + rng.NextUint64(170);
    // Zipf-skew the join keys of half the tables.
    ZipfDistribution zipf(20, rng.NextBool() ? 1.2 : 0.0);
    for (size_t r = 0; r < rows; ++r) {
      EXPECT_TRUE((*entry)
                      ->table()
                      .Append({Value(static_cast<int64_t>(zipf.Sample(&rng))),
                               Value(rng.NextInt64(0, 49)), Value(rng.NextInt64(0, 4))})
                      .ok());
    }
    // Indexes: k indexed with 70% probability (else the scan-probe fallback
    // runs); v indexed with 50%.
    if (rng.NextBool(0.7)) {
      EXPECT_TRUE(world->catalog.BuildIndex(name, "k", name + "_k").ok());
    }
    if (rng.NextBool(0.5)) {
      EXPECT_TRUE(world->catalog.BuildIndex(name, "v", name + "_v").ok());
    }
  }
  EXPECT_TRUE(world->catalog.AnalyzeAll().ok());

  JoinQuery& q = world->query;
  q.name = "rand" + std::to_string(seed);
  for (size_t t = 0; t < num_tables; ++t) {
    q.tables.push_back({"a" + std::to_string(t), "t" + std::to_string(t)});
  }
  // Spanning tree over the tables (random parent), plus one extra edge with
  // 40% probability -> a cyclic join graph.
  size_t edge_id = 0;
  for (size_t t = 1; t < num_tables; ++t) {
    size_t parent = rng.NextUint64(t);
    q.edges.push_back({parent, "k", t, "k", edge_id++});
  }
  if (num_tables >= 3 && rng.NextBool(0.4)) {
    size_t a = rng.NextUint64(num_tables);
    size_t b = rng.NextUint64(num_tables);
    if (a != b) {
      bool exists = false;
      for (const auto& e : q.edges) {
        if ((e.left == a && e.right == b) || (e.left == b && e.right == a)) {
          exists = true;
        }
      }
      if (!exists) q.edges.push_back({a, "v", b, "v", edge_id++});
    }
  }
  // Random local predicates.
  q.local_predicates.assign(num_tables, nullptr);
  for (size_t t = 0; t < num_tables; ++t) {
    switch (rng.NextUint64(5)) {
      case 0:
        q.local_predicates[t] = ColCmp("grp", CompareOp::kEq,
                                       Value(rng.NextInt64(0, 4)));
        break;
      case 1:
        q.local_predicates[t] =
            ColCmp("v", CompareOp::kLt, Value(rng.NextInt64(5, 45)));
        break;
      case 2:
        q.local_predicates[t] =
            Or({ColCmp("grp", CompareOp::kEq, Value(rng.NextInt64(0, 2))),
                ColCmp("grp", CompareOp::kEq, Value(rng.NextInt64(3, 4)))});
        break;
      case 3:
        q.local_predicates[t] =
            And({ColCmp("v", CompareOp::kGe, Value(rng.NextInt64(0, 20))),
                 ColCmp("k", CompareOp::kLe, Value(rng.NextInt64(5, 19)))});
        break;
      default:
        break;  // no predicate
    }
  }
  q.output = {{0, "k"}, {num_tables - 1, "v"}};
  EXPECT_TRUE(q.Validate().ok());
  return world;
}

class RandomQuerySweep : public ::testing::TestWithParam<uint64_t> {};

// Results compare as order-independent multiset digests rather than sorted
// row vectors: some worlds join to millions of rows, and sorting them once
// for the reference and again per executor run dominated the suite.
TEST_P(RandomQuerySweep, AllConfigurationsMatchReference) {
  auto world = BuildWorld(GetParam());
  RowMultisetDigest expected;
  ASSERT_TRUE(ExecuteReference(world->catalog, world->query,
                               [&expected](const Row& r) { expected.Add(r); })
                  .ok());

  for (StatsTier tier : {StatsTier::kMinimal, StatsTier::kBase}) {
    Planner planner(&world->catalog, PlannerOptions{tier});
    auto plan = planner.Plan(world->query);
    ASSERT_TRUE(plan.ok()) << plan.status();

    AdaptiveOptions off;
    off.reorder_inners = false;
    off.reorder_driving = false;
    const AdaptiveOptions aggressive = testing::AggressiveAdaptiveOptions();

    for (const AdaptiveOptions& options : {off, AdaptiveOptions{}, aggressive}) {
      PipelineExecutor exec(plan->get(), options);
      RowMultisetDigest got;
      auto stats = exec.Execute([&got](const Row& r) { got.Add(r); });
      ASSERT_TRUE(stats.ok()) << stats.status();
      ASSERT_EQ(got.rows, expected.rows)
          << world->query.ToString() << " tier=" << static_cast<int>(tier);
      ASSERT_EQ(got.sum, expected.sum)
          << world->query.ToString() << " tier=" << static_cast<int>(tier);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomQuerySweep,
                         ::testing::Range(uint64_t{1}, uint64_t{41}));

}  // namespace
}  // namespace ajr
