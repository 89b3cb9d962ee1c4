// Wide-join regression battery (DESIGN.md §13): hand-built 12-table chain
// and 16-table star worlds — both above the planner's greedy-seed
// threshold — pushed through the differential oracle (I1-I5 under the full
// config spread), plus direct checks that a deliberately corrupted initial
// order repairs to the greedy seed's result multiset and does strictly
// less work than running the corruption to completion, and that
// morsel-parallel execution at dop 4 agrees with serial execution.
//
// Registered with the `stress` label so the TSan build covers the
// dop-4 paths at width 16.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "exec/pipeline_executor.h"
#include "exec/reference_executor.h"
#include "optimize/greedy_order.h"
#include "optimize/planner.h"
#include "runtime/parallel_executor.h"
#include "testing/oracle.h"
#include "testing/workload_gen.h"

namespace ajr {
namespace {

using ajr::testing::RunDifferential;
using ajr::testing::TableSpec;
using ajr::testing::WorkloadSpec;

// 12-table chain c0 -k- c1 -k- ... -k- c11. Matching keys 0..15 in every
// table; c5 and c9 duplicate each key (fan-out 2); table t also carries
// 3*t never-matching rows so estimated cardinalities differ leg to leg
// (greedy vs anti-greedy orders genuinely diverge). c7's key is
// unindexed, forcing a scan-probe fallback mid-chain. c3's predicate
// drops keys 12..15.
WorkloadSpec ChainSpec12() {
  WorkloadSpec spec;
  const size_t n = 12;
  for (size_t t = 0; t < n; ++t) {
    TableSpec table;
    table.name = "c" + std::to_string(t);
    table.columns = {{"k", DataType::kInt64}, {"w", DataType::kInt64}};
    const size_t copies = (t == 5 || t == 9) ? 2 : 1;
    for (size_t c = 0; c < copies; ++c) {
      for (int64_t k = 0; k < 16; ++k) table.rows.push_back({Value(k), Value(k)});
    }
    for (size_t e = 0; e < 3 * t; ++e) {
      table.rows.push_back(
          {Value(static_cast<int64_t>(1000 + 100 * t + e)), Value(int64_t{0})});
    }
    if (t != 7) table.indexed_columns = {"k"};
    spec.tables.push_back(std::move(table));
  }
  JoinQuery& q = spec.query;
  q.name = "wide_chain12";
  for (size_t t = 0; t < n; ++t) {
    q.tables.push_back({"a" + std::to_string(t), "c" + std::to_string(t)});
  }
  for (size_t t = 1; t < n; ++t) q.edges.push_back({t - 1, "k", t, "k", t - 1});
  q.local_predicates.assign(n, nullptr);
  q.local_predicates[3] = ColCmp("w", CompareOp::kLe, Value(int64_t{11}));
  q.output = {{0, "k"}, {n - 1, "w"}};
  return spec;
}

// 16-table star: center s0 (48 rows, keys 0..11 four times each) joined to
// 15 dimensions on k. Dimensions hold one row per key except d2 (three —
// planted fan-out skew) plus 2*t never-matching rows each; d4's predicate
// keeps keys 0..7; d11's key is unindexed.
WorkloadSpec StarSpec16() {
  WorkloadSpec spec;
  const size_t n = 16;
  TableSpec center;
  center.name = "s0";
  center.columns = {{"k", DataType::kInt64}, {"w", DataType::kInt64}};
  for (int64_t r = 0; r < 48; ++r) center.rows.push_back({Value(r % 12), Value(r)});
  center.indexed_columns = {"k"};
  spec.tables.push_back(std::move(center));
  for (size_t t = 1; t < n; ++t) {
    TableSpec dim;
    dim.name = "d" + std::to_string(t);
    dim.columns = {{"k", DataType::kInt64}, {"w", DataType::kInt64}};
    const size_t copies = t == 2 ? 3 : 1;
    for (size_t c = 0; c < copies; ++c) {
      for (int64_t k = 0; k < 12; ++k) dim.rows.push_back({Value(k), Value(k)});
    }
    for (size_t e = 0; e < 2 * t; ++e) {
      dim.rows.push_back(
          {Value(static_cast<int64_t>(1000 + 100 * t + e)), Value(int64_t{0})});
    }
    if (t != 11) dim.indexed_columns = {"k"};
    spec.tables.push_back(std::move(dim));
  }
  JoinQuery& q = spec.query;
  q.name = "wide_star16";
  q.tables.push_back({"a0", "s0"});
  for (size_t t = 1; t < n; ++t) {
    q.tables.push_back({"a" + std::to_string(t), "d" + std::to_string(t)});
  }
  for (size_t t = 1; t < n; ++t) q.edges.push_back({0, "k", t, "k", t - 1});
  q.local_predicates.assign(n, nullptr);
  q.local_predicates[4] = ColCmp("w", CompareOp::kLe, Value(int64_t{7}));
  q.output = {{0, "k"}, {n - 1, "w"}};
  return spec;
}

std::vector<Row> RunPlan(const PipelinePlan& plan, const AdaptiveOptions& opts,
                         uint64_t* work_units = nullptr) {
  PipelineExecutor exec(&plan, opts);
  std::vector<Row> rows;
  auto stats = exec.Execute([&rows](const Row& r) { rows.push_back(r); });
  EXPECT_TRUE(stats.ok()) << stats.status();
  if (stats.ok() && work_units != nullptr) *work_units = stats->work_units;
  SortRows(&rows);
  return rows;
}

AdaptiveOptions StaticOptions() {
  AdaptiveOptions off;
  off.reorder_inners = false;
  off.reorder_driving = false;
  return off;
}

TEST(WideJoinTest, ChainDifferentialClean) {
  auto outcome = RunDifferential(ChainSpec12());
  ASSERT_TRUE(outcome.ok()) << outcome.status();
  EXPECT_FALSE(outcome->has_value()) << (*outcome)->ToString();
}

TEST(WideJoinTest, StarDifferentialClean) {
  auto outcome = RunDifferential(StarSpec16());
  ASSERT_TRUE(outcome.ok()) << outcome.status();
  EXPECT_FALSE(outcome->has_value()) << (*outcome)->ToString();
}

// A corrupted (anti-greedy) seed must still produce exactly the greedy
// seed's result multiset under adaptation, and adaptation must beat
// running the corruption statically (work units are deterministic on
// these plans, so the strict inequality is stable).
void CheckCorruptedSeedRepair(const WorkloadSpec& spec) {
  auto catalog = spec.Materialize();
  ASSERT_TRUE(catalog.ok()) << catalog.status();
  auto expected = ExecuteReference(**catalog, spec.query);
  ASSERT_TRUE(expected.ok()) << expected.status();
  SortRows(&*expected);

  Planner planner(catalog->get());
  auto plan = planner.Plan(spec.query);
  ASSERT_TRUE(plan.ok()) << plan.status();
  const PipelinePlan& greedy_plan = **plan;
  // The widths here sit above the greedy-seed threshold.
  ASSERT_EQ(greedy_plan.initial_order,
            GreedyCardinalityOrder(greedy_plan.EstimatedCostInputs()));
  PipelinePlan corrupt_plan = greedy_plan;
  corrupt_plan.initial_order =
      AntiGreedyCardinalityOrder(greedy_plan.EstimatedCostInputs());
  ASSERT_NE(corrupt_plan.initial_order, greedy_plan.initial_order);

  uint64_t wu_greedy = 0, wu_corrupt = 0;
  EXPECT_EQ(RunPlan(greedy_plan, StaticOptions(), &wu_greedy), *expected);
  EXPECT_EQ(RunPlan(corrupt_plan, StaticOptions(), &wu_corrupt), *expected);
  EXPECT_GT(wu_corrupt, wu_greedy) << "corruption is supposed to hurt";

  uint64_t wu_repaired = 0;
  EXPECT_EQ(RunPlan(corrupt_plan, ajr::testing::AggressiveAdaptiveOptions(),
                    &wu_repaired),
            *expected);
  // Rank must win back work even on these miniature worlds.
  EXPECT_LT(wu_repaired, wu_corrupt)
      << "rank policy failed to recover any of the corrupted seed's damage";
}

TEST(WideJoinTest, ChainCorruptedSeedRepairs) {
  CheckCorruptedSeedRepair(ChainSpec12());
}

TEST(WideJoinTest, StarCorruptedSeedRepairs) {
  CheckCorruptedSeedRepair(StarSpec16());
}

// Morsel-parallel execution must preserve the result multiset at every
// dop, from both the greedy and the corrupted seed.
void CheckParallelAgreement(const WorkloadSpec& spec) {
  auto catalog = spec.Materialize();
  ASSERT_TRUE(catalog.ok()) << catalog.status();
  auto expected = ExecuteReference(**catalog, spec.query);
  ASSERT_TRUE(expected.ok()) << expected.status();
  SortRows(&*expected);

  Planner planner(catalog->get());
  auto plan = planner.Plan(spec.query);
  ASSERT_TRUE(plan.ok()) << plan.status();
  PipelinePlan corrupt_plan = **plan;
  corrupt_plan.initial_order =
      AntiGreedyCardinalityOrder((*plan)->EstimatedCostInputs());

  AdaptiveOptions adapt = ajr::testing::AggressiveAdaptiveOptions();
  for (const PipelinePlan* p : {plan->get(), &corrupt_plan}) {
    for (size_t dop : {size_t{1}, size_t{4}}) {
      ParallelExecOptions popts;
      popts.dop = dop;
      // Ramp base 5 without back-off: 5-entry morsels, many folds and
      // drain barriers.
      AdaptiveOptions options = adapt;
      if (dop > 1) options.check_frequency = 5;
      ParallelPipelineExecutor exec(p, options, popts);
      std::vector<Row> rows;
      auto stats = exec.Execute([&rows](const Row& r) { rows.push_back(r); });
      ASSERT_TRUE(stats.ok()) << stats.status();
      SortRows(&rows);
      EXPECT_EQ(rows, *expected)
          << spec.query.name << " dop=" << dop
          << " corrupted=" << (p == &corrupt_plan);
    }
  }
}

TEST(WideJoinTest, ChainParallelDopAgreement) {
  CheckParallelAgreement(ChainSpec12());
}

TEST(WideJoinTest, StarParallelDopAgreement) {
  CheckParallelAgreement(StarSpec16());
}

}  // namespace
}  // namespace ajr
