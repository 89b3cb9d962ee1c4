#include "exec/pipeline_executor.h"

#include <gtest/gtest.h>

#include "exec/exec_observer.h"
#include "exec/reference_executor.h"
#include "storage/key_codec.h"
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
                                      ExecStats* stats_out = nullptr,
                                      SharedProbeCache* cache = nullptr,
                                      ExecObserver* observer = nullptr) {
    auto plan = planner_->Plan(q);
    EXPECT_TRUE(plan.ok()) << plan.status();
    PipelineExecutor exec(plan->get(), options);
    exec.set_shared_cache(cache);
    exec.set_observer(observer);
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

// ---- Shared probe cache -----------------------------------------------------
//
// ProbeLeg consults a SharedProbeCache before each eligible index probe and
// replays hits. Replay is an execution strategy: every stat the adaptive
// controller can observe must be bit-identical to an unshared run.

namespace {

void ExpectSameLogicalWork(const ExecStats& a, const ExecStats& b,
                           const std::string& what) {
  EXPECT_EQ(a.work_units, b.work_units) << what;
  EXPECT_EQ(a.rows_out, b.rows_out) << what;
  EXPECT_EQ(a.driving_rows_produced, b.driving_rows_produced) << what;
  EXPECT_EQ(a.inner_checks, b.inner_checks) << what;
  EXPECT_EQ(a.inner_reorders, b.inner_reorders) << what;
  EXPECT_EQ(a.driving_checks, b.driving_checks) << what;
  EXPECT_EQ(a.driving_switches, b.driving_switches) << what;
  EXPECT_EQ(a.final_order, b.final_order) << what;
  EXPECT_EQ(a.events, b.events) << what;
}

/// Counts index probes (one OnProbe per incoming row of an inner leg).
class ProbeCounter : public ExecObserver {
 public:
  void OnProbe(size_t, size_t, uint64_t, uint64_t, uint64_t) override { ++probes; }
  uint64_t probes = 0;
};

}  // namespace

TEST_F(PipelineExecutorTest, SharedCacheWarmRunReplaysWithIdenticalWork) {
  DmvQueryGenerator gen(catalog_);
  for (int tmpl : {1, 2, 3, 4, 5}) {
    auto q = gen.Generate(tmpl, 0);
    ASSERT_TRUE(q.ok());
    ExecStats unshared, cold, warm;
    auto rows_unshared = RunPipeline(*q, AdaptiveOptions{}, &unshared);
    SharedProbeCache cache;
    auto rows_cold = RunPipeline(*q, AdaptiveOptions{}, &cold, &cache);
    auto rows_warm = RunPipeline(*q, AdaptiveOptions{}, &warm, &cache);
    EXPECT_EQ(rows_cold, rows_unshared) << q->name;
    EXPECT_EQ(rows_warm, rows_unshared) << q->name;
    ExpectSameLogicalWork(unshared, cold, q->name + " cold");
    ExpectSameLogicalWork(unshared, warm, q->name + " warm");
    EXPECT_EQ(unshared.probe_cache_shared_hits + unshared.probe_cache_shared_misses, 0u);
    EXPECT_GT(cold.probe_cache_shared_misses, 0u) << q->name;
    EXPECT_GT(warm.probe_cache_shared_hits, 0u) << q->name;
  }
}

TEST_F(PipelineExecutorTest, SharedCacheServesEveryEligibleProbe) {
  // A static Fig 7 run has no positional predicates and (acyclic query)
  // exactly one applicable edge per inner leg, so every probe is one cache
  // lookup — including repeats of a key the leg just probed. The cold run
  // resolves each as a hit or a miss, and a warm run against a cache large
  // enough to hold them all replays every probe.
  DmvQueryGenerator gen(catalog_);
  for (int tmpl : {1, 2, 3, 4, 5}) {
    for (size_t variant = 0; variant < 6; ++variant) {
      auto q = gen.Generate(tmpl, variant);
      ASSERT_TRUE(q.ok());
      SharedProbeCache cache(/*entries_per_stripe=*/4096, /*stripes=*/16);
      ExecStats cold, warm;
      ProbeCounter cold_probes, warm_probes;
      RunPipeline(*q, Static(), &cold, &cache, &cold_probes);
      RunPipeline(*q, Static(), &warm, &cache, &warm_probes);
      ASSERT_GT(cold_probes.probes, 0u) << q->name;
      EXPECT_EQ(cold.probe_cache_shared_hits + cold.probe_cache_shared_misses,
                cold_probes.probes)
          << q->name;
      EXPECT_EQ(warm.probe_cache_shared_hits, warm_probes.probes) << q->name;
      EXPECT_EQ(warm.probe_cache_shared_misses, 0u) << q->name;
    }
  }
}

TEST_F(PipelineExecutorTest, DemotedLegNeverReplaysEntriesFromBeforeItsSwitch) {
  // The initial driving leg is never probed before its first demotion, so
  // any entry under its epoch-0 signature was recorded elsewhere — here it
  // is poisoned (no matches, no work). The driving switch bumps that leg's
  // epoch (and makes its positional predicate live), so the poison must
  // never be replayed: rows and work stay identical to an unshared run.
  DmvQueryGenerator gen(catalog_);
  size_t switched = 0;
  for (int tmpl : {2, 4}) {
    for (size_t variant = 0; variant < 3; ++variant) {
      auto q = gen.Generate(tmpl, variant);
      ASSERT_TRUE(q.ok());
      auto plan = planner_->Plan(*q);
      ASSERT_TRUE(plan.ok()) << plan.status();
      const size_t d = (*plan)->initial_order[0];
      const HeapTable& table = (*plan)->entries[d]->table();
      const ExprPtr& pred = q->local_predicates[d];
      SharedProbeCache cache(/*entries_per_stripe=*/4096, /*stripes=*/16);
      for (const JoinEdge& e : q->edges) {
        if (!e.Touches(d)) continue;
        const IndexInfo* info = (*plan)->access[d].probe_index_by_edge[e.edge_id];
        if (info == nullptr) continue;
        const uint64_t sig = SharedProbeCache::LegSignature(
            info->tree.get(), pred != nullptr ? pred->ToString() : std::string(), 0);
        bool conflict = false;
        for (Rid rid = 0; rid < table.num_rows(); ++rid) {
          cache.Insert(sig, EncodeKeyFromCell(table.View(rid), info->column_idx), {},
                       0, 0, &conflict);
        }
      }
      ExecStats unshared, shared;
      auto rows_unshared = RunPipeline(*q, Aggressive(), &unshared);
      auto rows_shared = RunPipeline(*q, Aggressive(), &shared, &cache);
      if (unshared.driving_switches == 0) continue;
      ++switched;
      EXPECT_EQ(rows_shared, rows_unshared) << q->name;
      ExpectSameLogicalWork(unshared, shared, q->name);
    }
  }
  EXPECT_GT(switched, 0u) << "no query switched its driving leg";
}

}  // namespace
}  // namespace ajr
