#include "exec/pipeline_executor.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <tuple>

#include "exec/adaptive_coordinator.h"
#include "exec/exec_observer.h"
#include "exec/reference_executor.h"
#include "workload/dmv.h"
#include "workload/templates.h"

namespace ajr {
namespace {

class PipelineExecutorTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    catalog_ = new Catalog();
    DmvConfig config;
    config.num_owners = 3000;
    ASSERT_TRUE(GenerateDmv(catalog_, config).ok());
    planner_ = new Planner(catalog_);
  }
  static void TearDownTestSuite() {
    delete planner_;
    delete catalog_;
    catalog_ = nullptr;
    planner_ = nullptr;
  }

  static std::vector<Row> RunPipeline(const JoinQuery& q, AdaptiveOptions options,
                                      ExecStats* stats_out = nullptr) {
    auto plan = planner_->Plan(q);
    EXPECT_TRUE(plan.ok()) << plan.status();
    PipelineExecutor exec(plan->get(), options);
    std::vector<Row> rows;
    auto stats = exec.Execute([&rows](const Row& r) { rows.push_back(r); });
    EXPECT_TRUE(stats.ok()) << stats.status();
    if (stats_out != nullptr && stats.ok()) *stats_out = *stats;
    SortRows(&rows);
    return rows;
  }

  static std::vector<Row> RunReference(const JoinQuery& q) {
    auto rows = ExecuteReference(*catalog_, q);
    EXPECT_TRUE(rows.ok()) << rows.status();
    std::vector<Row> out = rows.ok() ? *rows : std::vector<Row>{};
    SortRows(&out);
    return out;
  }

  static AdaptiveOptions Static() {
    AdaptiveOptions o;
    o.reorder_inners = false;
    o.reorder_driving = false;
    return o;
  }

  static AdaptiveOptions Aggressive() {
    // Check after every row, no hysteresis, tiny window: maximizes the
    // number of switches, which is exactly what the duplicate/loss property
    // tests want to stress.
    AdaptiveOptions o;
    o.check_frequency = 1;
    o.switch_benefit_threshold = 1.0;
    o.history_window = 8;
    o.min_edge_pairs = 1;
    o.min_leg_samples = 1;
    return o;
  }

  static Catalog* catalog_;
  static Planner* planner_;
};

Catalog* PipelineExecutorTest::catalog_ = nullptr;
Planner* PipelineExecutorTest::planner_ = nullptr;

TEST_F(PipelineExecutorTest, StaticMatchesReferenceOnExample1) {
  JoinQuery q = DmvQueryGenerator::Example1();
  auto expected = RunReference(q);
  auto got = RunPipeline(q, Static());
  EXPECT_EQ(got, expected);
  EXPECT_FALSE(expected.empty()) << "query should match some rows at this scale";
}

TEST_F(PipelineExecutorTest, StaticMatchesReferenceOnExample2) {
  JoinQuery q = DmvQueryGenerator::Example2();
  EXPECT_EQ(RunPipeline(q, Static()), RunReference(q));
}

TEST_F(PipelineExecutorTest, StaticMatchesReferenceOnExample3) {
  JoinQuery q = DmvQueryGenerator::Example3();
  EXPECT_EQ(RunPipeline(q, Static()), RunReference(q));
}

TEST_F(PipelineExecutorTest, AdaptiveMatchesReferenceOnExamples) {
  for (const JoinQuery& q :
       {DmvQueryGenerator::Example1(), DmvQueryGenerator::Example2(),
        DmvQueryGenerator::Example3()}) {
    ExecStats stats;
    auto got = RunPipeline(q, Aggressive(), &stats);
    EXPECT_EQ(got, RunReference(q)) << q.name;
    EXPECT_EQ(stats.rows_out, got.size());
  }
}

// The headline no-duplicates / no-losses property: under the most
// switch-happy configuration, every template instance must produce exactly
// the reference multiset.
class TemplateOracleSweep : public PipelineExecutorTest,
                            public ::testing::WithParamInterface<int> {};

TEST_P(TemplateOracleSweep, AggressiveAdaptiveMatchesReference) {
  DmvQueryGenerator gen(catalog_);
  for (size_t variant = 0; variant < 6; ++variant) {
    auto q = gen.Generate(GetParam(), variant);
    ASSERT_TRUE(q.ok()) << q.status();
    auto expected = RunReference(*q);
    ExecStats stats;
    auto got = RunPipeline(*q, Aggressive(), &stats);
    EXPECT_EQ(got, expected) << q->name << ": " << q->ToString();
    // Also the static plan must agree.
    auto static_rows = RunPipeline(*q, Static());
    EXPECT_EQ(static_rows, expected) << q->name;
  }
}

INSTANTIATE_TEST_SUITE_P(Templates, TemplateOracleSweep, ::testing::Values(1, 2, 3, 4, 5));

TEST_F(PipelineExecutorTest, SixTableAdaptiveMatchesReference) {
  DmvQueryGenerator gen(catalog_);
  for (int t = 1; t <= kNumSixTableTemplates; ++t) {
    auto q = gen.GenerateSixTable(t, 0);
    ASSERT_TRUE(q.ok());
    EXPECT_EQ(RunPipeline(*q, Aggressive()), RunReference(*q)) << q->name;
  }
}

TEST_F(PipelineExecutorTest, InnerOnlyAndDrivingOnlyModesMatchReference) {
  DmvQueryGenerator gen(catalog_);
  auto q = gen.Generate(1, 2);
  ASSERT_TRUE(q.ok());
  auto expected = RunReference(*q);

  AdaptiveOptions inner_only = Aggressive();
  inner_only.reorder_driving = false;
  EXPECT_EQ(RunPipeline(*q, inner_only), expected);

  AdaptiveOptions driving_only = Aggressive();
  driving_only.reorder_inners = false;
  EXPECT_EQ(RunPipeline(*q, driving_only), expected);
}

TEST_F(PipelineExecutorTest, StatsAreConsistent) {
  JoinQuery q = DmvQueryGenerator::Example1();
  ExecStats stats;
  auto rows = RunPipeline(q, Aggressive(), &stats);
  EXPECT_EQ(stats.rows_out, rows.size());
  EXPECT_GT(stats.work_units, 0u);
  EXPECT_GT(stats.driving_rows_produced, 0u);
  ASSERT_EQ(stats.initial_order.size(), 4u);
  ASSERT_EQ(stats.final_order.size(), 4u);
  EXPECT_GE(stats.inner_checks, stats.inner_reorders);
  EXPECT_GE(stats.driving_checks, stats.driving_switches);
  EXPECT_EQ(stats.order_switches(), stats.inner_reorders + stats.driving_switches);
}

TEST_F(PipelineExecutorTest, StaticModeNeverSwitches) {
  JoinQuery q = DmvQueryGenerator::Example1();
  ExecStats stats;
  RunPipeline(q, Static(), &stats);
  EXPECT_EQ(stats.inner_checks, 0u);
  EXPECT_EQ(stats.driving_checks, 0u);
  EXPECT_EQ(stats.inner_reorders, 0u);
  EXPECT_EQ(stats.driving_switches, 0u);
  EXPECT_EQ(stats.initial_order, stats.final_order);
}

TEST_F(PipelineExecutorTest, DeterministicAcrossRuns) {
  DmvQueryGenerator gen(catalog_);
  auto q = gen.Generate(3, 1);
  ASSERT_TRUE(q.ok());
  ExecStats a, b;
  auto rows_a = RunPipeline(*q, Aggressive(), &a);
  auto rows_b = RunPipeline(*q, Aggressive(), &b);
  EXPECT_EQ(rows_a, rows_b);
  EXPECT_EQ(a.work_units, b.work_units);
  EXPECT_EQ(a.inner_reorders, b.inner_reorders);
  EXPECT_EQ(a.driving_switches, b.driving_switches);
  EXPECT_EQ(a.final_order, b.final_order);
}

TEST_F(PipelineExecutorTest, TwoTableQueryWorks) {
  JoinQuery q = DmvQueryGenerator::Example2();
  ExecStats stats;
  auto rows = RunPipeline(q, Aggressive(), &stats);
  EXPECT_EQ(rows, RunReference(q));
  ASSERT_EQ(stats.final_order.size(), 2u);
}

TEST_F(PipelineExecutorTest, SingleTableQueryWorks) {
  JoinQuery q;
  q.name = "single";
  q.tables = {{"c", "car"}};
  q.local_predicates = {ColCmp("make", CompareOp::kEq, Value("Mazda"))};
  q.output = {{0, "model"}};
  auto expected = RunReference(q);
  EXPECT_FALSE(expected.empty());
  EXPECT_EQ(RunPipeline(q, Aggressive()), expected);
}

TEST_F(PipelineExecutorTest, EmptyResultQueryWorks) {
  JoinQuery q = DmvQueryGenerator::Example1();
  q.local_predicates[0] = ColCmp("country1", CompareOp::kEq, Value("Atlantis"));
  EXPECT_TRUE(RunPipeline(q, Aggressive()).empty());
  EXPECT_TRUE(RunReference(q).empty());
}

TEST_F(PipelineExecutorTest, NullSinkCountsRows) {
  auto plan = planner_->Plan(DmvQueryGenerator::Example1());
  ASSERT_TRUE(plan.ok());
  PipelineExecutor exec(plan->get(), Static());
  auto stats = exec.Execute(nullptr);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->rows_out, RunReference(DmvQueryGenerator::Example1()).size());
}

TEST_F(PipelineExecutorTest, ExecutorIsSingleUse) {
  auto plan = planner_->Plan(DmvQueryGenerator::Example2());
  ASSERT_TRUE(plan.ok());
  PipelineExecutor exec(plan->get(), Static());
  ASSERT_TRUE(exec.Execute(nullptr).ok());
  EXPECT_FALSE(exec.Execute(nullptr).ok());
}

/// Checks each adaptation event against the driving rows reported before
/// it: the fields the observer-side oracle relies on must be filled in.
class EventChecker : public ExecObserver {
 public:
  void OnDrivingRow(size_t t, Rid /*rid*/, const ScanPosition& pos) override {
    last_pos_[t] = pos;
    ++driving_rows_;
  }

  void OnAdaptation(const AdaptationEvent& event) override {
    const std::vector<size_t>& before = event.order_before;
    const std::vector<size_t>& after = event.order_after;
    EXPECT_EQ(event.driving_rows_produced, driving_rows_);
    ASSERT_EQ(before.size(), after.size());
    EXPECT_NE(before, after);
    EXPECT_TRUE(std::is_permutation(before.begin(), before.end(), after.begin()));
    ASSERT_LT(event.position, before.size());
    EXPECT_TRUE(std::equal(before.begin(), before.begin() + event.position, after.begin()));
    if (event.kind == AdaptationEvent::Kind::kInnerReorder) {
      ++inner_reorders;
      EXPECT_GT(event.position, 0u);
      EXPECT_EQ(event.demoted_table, SIZE_MAX);
      EXPECT_FALSE(event.demoted_prefix.has_value());
      return;
    }
    ++switches;
    EXPECT_EQ(event.position, 0u);
    EXPECT_NE(before[0], after[0]);
    // The demoted leg is the old driving leg, and its prefix covers every
    // driving row it reported.
    EXPECT_EQ(event.demoted_table, before[0]);
    ASSERT_TRUE(event.demoted_prefix.has_value());
    auto last = last_pos_.find(before[0]);
    if (last == last_pos_.end()) return;
    const ScanPosition& prefix = *event.demoted_prefix;
    ASSERT_EQ(prefix.order, last->second.order);
    // (key, RID) order on encoded keys; RID-order positions carry key 0.
    EXPECT_FALSE(std::tie(prefix.key_enc, prefix.rid) <
                 std::tie(last->second.key_enc, last->second.rid))
        << prefix.ToString() << " before " << last->second.ToString();
  }

  uint64_t inner_reorders = 0;
  uint64_t switches = 0;

 private:
  std::map<size_t, ScanPosition> last_pos_;
  uint64_t driving_rows_ = 0;
};

// Serial checks and a one-worker run's adoptions report their changes
// through the same observer events.
TEST_F(PipelineExecutorTest, AdaptationEventsDescribeEachChange) {
  DmvQueryGenerator gen(catalog_);
  uint64_t inner_reorders = 0, switches = 0, worker_switches = 0;
  for (int t = 1; t <= kNumFourTableTemplates; ++t) {
    for (size_t variant = 0; variant < 6; ++variant) {
      auto q = gen.Generate(t, variant);
      ASSERT_TRUE(q.ok()) << q.status();
      auto plan = planner_->Plan(*q);
      ASSERT_TRUE(plan.ok()) << plan.status();

      EventChecker serial;
      PipelineExecutor exec(plan->get(), Aggressive());
      exec.set_observer(&serial);
      auto stats = exec.Execute(nullptr);
      ASSERT_TRUE(stats.ok()) << stats.status();
      EXPECT_EQ(serial.inner_reorders, stats->inner_reorders) << q->name;
      EXPECT_EQ(serial.switches, stats->driving_switches) << q->name;
      inner_reorders += serial.inner_reorders;
      switches += serial.switches;

      // The observed worker reads positions for OnDrivingRow.
      AdaptiveCoordinator coordinator(plan->get(), Aggressive(),
                                      /*record_positions=*/true);
      EventChecker adopted;
      PipelineExecutor worker(plan->get(), Aggressive());
      worker.set_observer(&adopted);
      ASSERT_TRUE(worker.ExecuteWorker(&coordinator, nullptr).ok()) << q->name;
      worker_switches += adopted.switches;
    }
  }
  EXPECT_GT(inner_reorders, 0u);
  EXPECT_GT(switches, 0u);
  EXPECT_GT(worker_switches, 0u);
}

// Window-size sweep at aggressive checking: correctness must hold for any w.
class WindowSweep : public PipelineExecutorTest,
                    public ::testing::WithParamInterface<size_t> {};

TEST_P(WindowSweep, CorrectUnderAnyWindowSize) {
  DmvQueryGenerator gen(catalog_);
  auto q = gen.Generate(1, 0);
  ASSERT_TRUE(q.ok());
  AdaptiveOptions o = Aggressive();
  o.history_window = GetParam();
  EXPECT_EQ(RunPipeline(*q, o), RunReference(*q));
}

INSTANTIATE_TEST_SUITE_P(Windows, WindowSweep,
                         ::testing::Values(1u, 2u, 10u, 100u, 1000u));

}  // namespace
}  // namespace ajr
