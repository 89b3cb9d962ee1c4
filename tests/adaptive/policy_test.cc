// AdaptationPolicy behavioural suite (DESIGN.md §12).
//
// Three contracts:
//
//   * RankPolicy is the paper's brain *moved*, not rewritten: on the fig7
//     four-table mix it must reproduce the recorded decision trace
//     bit-for-bit — work units, check/reorder counters, adaptation event
//     strings, final orders.
//
//   * The same holds for a sample of the Fig 11 six-table mix, where
//     driving switches are most frequent and the driving-check cadence
//     moves the most work.
//
//   * With both reorder_* flags off (the static baseline) nothing is
//     decided: no checks fire, no events are logged, the optimizer's order
//     runs unchanged.

#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "adaptive/policy.h"
#include "exec/pipeline_executor.h"
#include "optimize/planner.h"
#include "workload/dmv.h"
#include "workload/templates.h"

namespace ajr {
namespace {

// ---- Golden traces --------------------------------------------------------
//
// Both run on DMV num_owners=5000 seed=20070415, Planner at
// StatsTier::kMinimal, DmvQueryGenerator(seed 20070415), default
// AdaptiveOptions. One "query" line per query (deterministic work units,
// row/check/reorder counters, final order) and one "  event" line per
// adaptation event, byte-for-byte.
//
// kGoldenFig7Trace: GenerateMix(6). kGoldenSixTableTrace:
// GenerateSixTableMix(12), where driving switches are most frequent, so it
// pins the driving-check cadence (checks at 10, 30, 70, 150, 310 produced
// rows whatever they decide).
const char* const kGoldenFig7Trace =
    "query T1/q0 wu=12105 rows=22 drove=460 ic=8 ir=0 dc=5 ds=1 order=1,0,2,3\n"
    "  event driving switch after 10 rows: o -> c (est remaining 19313 -> 11349 wu); order c o d a\n"
    "query T1/q1 wu=17613 rows=162 drove=578 ic=10 ir=0 dc=6 ds=1 order=1,0,2,3\n"
    "  event driving switch after 10 rows: o -> c (est remaining 36318 -> 11126 wu); order c o d a\n"
    "query T1/q2 wu=2504 rows=12 drove=85 ic=4 ir=0 dc=3 ds=0 order=0,1,2,3\n"
    "query T1/q3 wu=10042 rows=46 drove=372 ic=6 ir=0 dc=5 ds=0 order=0,1,2,3\n"
    "query T1/q4 wu=9546 rows=41 drove=362 ic=8 ir=0 dc=5 ds=2 order=0,1,2,3\n"
    "  event driving switch after 70 rows: o -> c (est remaining 5452 -> 4611 wu); order c o d a\n"
    "  event driving switch after 150 rows: c -> o (est remaining 9324 -> 5388 wu); order o c d a\n"
    "query T1/q5 wu=7472 rows=14 drove=282 ic=5 ir=0 dc=4 ds=0 order=0,1,2,3\n"
    "query T2/q0 wu=5014 rows=18 drove=138 ic=5 ir=0 dc=3 ds=1 order=1,0,2,3\n"
    "  event driving switch after 10 rows: o -> c (est remaining 11208 -> 1504 wu); order c o d a\n"
    "query T2/q1 wu=720 rows=0 drove=19 ic=1 ir=0 dc=1 ds=0 order=0,1,2,3\n"
    "query T2/q2 wu=1032 rows=0 drove=25 ic=1 ir=0 dc=1 ds=0 order=0,1,2,3\n"
    "query T2/q3 wu=1806 rows=0 drove=31 ic=2 ir=0 dc=2 ds=0 order=0,1,2,3\n"
    "query T2/q4 wu=2786 rows=7 drove=46 ic=3 ir=0 dc=2 ds=1 order=1,0,2,3\n"
    "  event driving switch after 10 rows: o -> c (est remaining 19659 -> 1532 wu); order c o d a\n"
    "query T2/q5 wu=3643 rows=0 drove=80 ic=4 ir=0 dc=3 ds=1 order=1,0,2,3\n"
    "  event driving switch after 10 rows: o -> c (est remaining 2308 -> 1526 wu); order c o d a\n"
    "query T3/q0 wu=6720 rows=4 drove=239 ic=9 ir=3 dc=4 ds=1 order=1,0,3,2\n"
    "  event driving switch after 10 rows: o -> c (est remaining 7680 -> 4726 wu); order c o d a\n"
    "  event inner reorder at position 2 after 63 driving rows; order c o a(jc=0.311,rank=-0.0383) d(jc=0.537,rank=-0.0257)\n"
    "  event inner reorder at position 2 after 91 driving rows; order c o d(jc=0.460,rank=-0.0300) a(jc=0.486,rank=-0.0239)\n"
    "  event inner reorder at position 2 after 133 driving rows; order c o a(jc=0.413,rank=-0.0290) d(jc=0.595,rank=-0.0225)\n"
    "query T3/q1 wu=11002 rows=41 drove=333 ic=9 ir=0 dc=5 ds=1 order=1,0,2,3\n"
    "  event driving switch after 10 rows: o -> c (est remaining 34032 -> 5423 wu); order c o d a\n"
    "query T3/q2 wu=6690 rows=0 drove=267 ic=6 ir=0 dc=4 ds=2 order=0,1,2,3\n"
    "  event driving switch after 30 rows: o -> c (est remaining 5002 -> 2135 wu); order c o d a\n"
    "  event driving switch after 70 rows: c -> o (est remaining 7625 -> 4953 wu); order o c d a\n"
    "query T3/q3 wu=1846 rows=0 drove=70 ic=3 ir=0 dc=3 ds=0 order=0,1,2,3\n"
    "query T3/q4 wu=10110 rows=3 drove=362 ic=8 ir=0 dc=5 ds=1 order=1,0,2,3\n"
    "  event driving switch after 10 rows: o -> c (est remaining 34032 -> 5423 wu); order c o d a\n"
    "query T3/q5 wu=2652 rows=0 drove=91 ic=5 ir=1 dc=3 ds=0 order=0,2,1,3\n"
    "  event inner reorder at position 1 after 70 driving rows; order o d(jc=0.127,rank=-0.0485) c(jc=0.173,rank=-0.0437) a(jc=0.333,rank=-0.0370)\n"
    "query T4/q0 wu=2935 rows=0 drove=36 ic=2 ir=0 dc=2 ds=1 order=1,0,2,3\n"
    "  event driving switch after 10 rows: o -> c (est remaining 10201 -> 1408 wu); order c o d a\n"
    "query T4/q1 wu=4039 rows=0 drove=65 ic=3 ir=0 dc=2 ds=1 order=1,0,2,3\n"
    "  event driving switch after 10 rows: o -> c (est remaining 10171 -> 1406 wu); order c o d a\n"
    "query T4/q2 wu=4076 rows=15 drove=107 ic=4 ir=0 dc=3 ds=1 order=1,0,2,3\n"
    "  event driving switch after 10 rows: o -> c (est remaining 12387 -> 1403 wu); order c o d a\n"
    "query T4/q3 wu=5720 rows=8 drove=145 ic=4 ir=0 dc=3 ds=1 order=1,0,2,3\n"
    "  event driving switch after 10 rows: o -> c (est remaining 10201 -> 1408 wu); order c o d a\n"
    "query T4/q4 wu=2215 rows=0 drove=42 ic=3 ir=0 dc=2 ds=1 order=1,0,2,3\n"
    "  event driving switch after 10 rows: o -> c (est remaining 19639 -> 1412 wu); order c o d a\n"
    "query T4/q5 wu=4568 rows=5 drove=115 ic=4 ir=0 dc=3 ds=1 order=1,0,2,3\n"
    "  event driving switch after 10 rows: o -> c (est remaining 10201 -> 1408 wu); order c o d a\n"
    "query T5/q0 wu=3348 rows=0 drove=108 ic=3 ir=0 dc=3 ds=0 order=1,0,2,3\n"
    "query T5/q1 wu=1430 rows=0 drove=10 ic=1 ir=0 dc=1 ds=0 order=1,0,2,3\n"
    "query T5/q2 wu=2174 rows=0 drove=42 ic=2 ir=0 dc=2 ds=0 order=1,0,2,3\n"
    "query T5/q3 wu=1792 rows=0 drove=25 ic=1 ir=0 dc=1 ds=0 order=1,0,2,3\n"
    "query T5/q4 wu=2316 rows=1 drove=53 ic=2 ir=0 dc=2 ds=0 order=1,0,2,3\n"
    "query T5/q5 wu=2614 rows=0 drove=82 ic=3 ir=0 dc=3 ds=0 order=1,0,2,3\n";

const char* const kGoldenSixTableTrace =
    "query S1/q0 wu=15316 rows=0 drove=377 ic=16 ir=1 dc=5 ds=1 order=0,1,2,3,5,4\n"
    "  event driving switch after 10 rows: t -> o (est remaining 24499 -> 7054 wu); order o d c a t l\n"
    "  event inner reorder at position 1 after 20 driving rows; order o c(jc=0.268,rank=-0.0464) d(jc=0.426,rank=-0.0319) a(jc=0.857,rank=-0.0083) t(jc=0.021,rank=-0.0641) l(jc=0.040,rank=-0.0542)\n"
    "query S2/q0 wu=9870 rows=0 drove=84 ic=13 ir=1 dc=3 ds=0 order=1,0,2,3,4,5\n"
    "  event inner reorder at position 4 after 9 driving rows; order c o d a l(jc=0.014,rank=-0.0697) t(jc=0.016,rank=-0.0570)\n"
    "query S1/q1 wu=20524 rows=1 drove=377 ic=19 ir=1 dc=5 ds=1 order=0,1,2,3,5,4\n"
    "  event driving switch after 10 rows: t -> o (est remaining 31792 -> 7455 wu); order o d c a t l\n"
    "  event inner reorder at position 1 after 20 driving rows; order o c(jc=0.389,rank=-0.0379) d(jc=0.648,rank=-0.0195) a(jc=1.480,rank=0.0230) t(jc=0.085,rank=-0.0559) l(jc=0.131,rank=-0.0489)\n"
    "query S2/q1 wu=4598 rows=0 drove=30 ic=8 ir=1 dc=2 ds=0 order=1,0,2,3,4,5\n"
    "  event inner reorder at position 4 after 9 driving rows; order c o d a l(jc=0.022,rank=-0.0609) t(jc=0.113,rank=-0.0514)\n"
    "query S1/q2 wu=10711 rows=1 drove=168 ic=14 ir=1 dc=4 ds=2 order=0,1,2,3,5,4\n"
    "  event driving switch after 10 rows: t -> l (est remaining 24046 -> 4787 wu); order l a t c o d\n"
    "  event driving switch after 30 rows: l -> o (est remaining 9298 -> 7460 wu); order o d c a t l\n"
    "  event inner reorder at position 1 after 39 driving rows; order o c(jc=0.238,rank=-0.0447) d(jc=0.704,rank=-0.0165) a(jc=1.583,rank=0.0271) t(jc=0.041,rank=-0.0555) l(jc=0.012,rank=-0.0468)\n"
    "query S2/q2 wu=4208 rows=0 drove=34 ic=7 ir=1 dc=2 ds=0 order=1,0,2,3,4,5\n"
    "  event inner reorder at position 4 after 15 driving rows; order c o d a l(jc=0.023,rank=-0.0633) t(jc=0.064,rank=-0.0542)\n"
    "query S1/q3 wu=15479 rows=0 drove=225 ic=16 ir=1 dc=4 ds=2 order=0,1,2,3,5,4\n"
    "  event driving switch after 10 rows: t -> l (est remaining 24046 -> 4787 wu); order l a t c o d\n"
    "  event driving switch after 30 rows: l -> o (est remaining 18781 -> 7497 wu); order o d c a t l\n"
    "  event inner reorder at position 1 after 40 driving rows; order o c(jc=0.228,rank=-0.0440) d(jc=0.537,rank=-0.0257) a(jc=2.071,rank=0.0438) t(jc=0.028,rank=-0.0556) l(jc=0.019,rank=-0.0387)\n"
    "query S2/q3 wu=6934 rows=0 drove=58 ic=10 ir=1 dc=2 ds=0 order=1,0,2,3,4,5\n"
    "  event inner reorder at position 4 after 10 driving rows; order c o d a l(jc=0.014,rank=-0.0697) t(jc=0.016,rank=-0.0570)\n"
    "query S1/q4 wu=10332 rows=1 drove=127 ic=12 ir=2 dc=3 ds=2 order=4,3,1,0,5,2\n"
    "  event inner reorder at position 2 after 6 driving rows; order t a c(jc=0.133,rank=-0.0602) l(jc=0.008,rank=-0.0559) o(jc=0.036,rank=-0.0555) d(jc=0.333,rank=-0.0370)\n"
    "  event inner reorder at position 2 after 7 driving rows; order t a l(jc=0.008,rank=-0.0559) c(jc=0.133,rank=-0.0498) o(jc=0.036,rank=-0.0555) d(jc=0.333,rank=-0.0370)\n"
    "  event driving switch after 10 rows: t -> o (est remaining 52503 -> 7503 wu); order o c d a l t\n"
    "  event driving switch after 30 rows: o -> l (est remaining 12819 -> 9244 wu); order l a c o t d\n"
    "query S2/q4 wu=7548 rows=0 drove=82 ic=13 ir=2 dc=3 ds=0 order=1,0,2,3,5,4\n"
    "  event inner reorder at position 4 after 5 driving rows; order c o d a l(jc=0.014,rank=-0.0697) t(jc=0.016,rank=-0.0570)\n"
    "  event inner reorder at position 4 after 22 driving rows; order c o d a t(jc=0.013,rank=-0.0566) l(jc=0.109,rank=-0.0502)\n"
    "query S1/q5 wu=6275 rows=0 drove=114 ic=7 ir=0 dc=3 ds=1 order=4,3,5,1,0,2\n"
    "  event driving switch after 10 rows: t -> l (est remaining 24046 -> 4787 wu); order l a t c o d\n"
    "query S2/q5 wu=3810 rows=0 drove=51 ic=6 ir=1 dc=2 ds=0 order=1,0,2,3,4,5\n"
    "  event inner reorder at position 4 after 26 driving rows; order c o d a l(jc=0.014,rank=-0.0697) t(jc=0.016,rank=-0.0570)\n";

class PolicyTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    catalog_ = new Catalog();
    DmvConfig config;
    config.num_owners = 5000;
    config.seed = 20070415;
    ASSERT_TRUE(GenerateDmv(catalog_, config).ok());
    planner_ = new Planner(catalog_, PlannerOptions{StatsTier::kMinimal});
  }
  static void TearDownTestSuite() {
    delete planner_;
    delete catalog_;
    catalog_ = nullptr;
    planner_ = nullptr;
  }

  static std::vector<JoinQuery> GoldenMix() {
    DmvQueryGenerator gen(catalog_, /*seed=*/20070415);
    auto queries = gen.GenerateMix(6);
    EXPECT_TRUE(queries.ok()) << queries.status();
    return queries.ok() ? *queries : std::vector<JoinQuery>{};
  }

  /// Renders one executed query in the golden capture's format.
  static std::string TraceLine(const JoinQuery& q, const ExecStats& stats) {
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "query %s wu=%llu rows=%llu drove=%llu ic=%llu ir=%llu "
                  "dc=%llu ds=%llu order=",
                  q.name.c_str(),
                  static_cast<unsigned long long>(stats.work_units),
                  static_cast<unsigned long long>(stats.rows_out),
                  static_cast<unsigned long long>(stats.driving_rows_produced),
                  static_cast<unsigned long long>(stats.inner_checks),
                  static_cast<unsigned long long>(stats.inner_reorders),
                  static_cast<unsigned long long>(stats.driving_checks),
                  static_cast<unsigned long long>(stats.driving_switches));
    std::string line = buf;
    for (size_t i = 0; i < stats.final_order.size(); ++i) {
      if (i > 0) line += ',';
      line += std::to_string(stats.final_order[i]);
    }
    line += '\n';
    for (const std::string& e : stats.events) {
      line += "  event " + e + '\n';
    }
    return line;
  }

  /// Runs each query with default options and renders the trace.
  static std::string Trace(const std::vector<JoinQuery>& queries) {
    std::string trace;
    for (const JoinQuery& q : queries) {
      auto plan = planner_->Plan(q);
      EXPECT_TRUE(plan.ok()) << plan.status();
      if (!plan.ok()) continue;
      AdaptiveOptions options;  // defaults: SwitchBoth
      PipelineExecutor exec(plan->get(), options);
      auto stats = exec.Execute(nullptr);
      EXPECT_TRUE(stats.ok()) << q.name << ": " << stats.status();
      if (!stats.ok()) continue;
      // Every check consulted the policy exactly once.
      EXPECT_EQ(stats->policy_decisions, stats->inner_checks + stats->driving_checks)
          << q.name;
      trace += TraceLine(q, *stats);
    }
    return trace;
  }

  static Catalog* catalog_;
  static Planner* planner_;
};

Catalog* PolicyTest::catalog_ = nullptr;
Planner* PolicyTest::planner_ = nullptr;

TEST_F(PolicyTest, RankPolicyReproducesPreRefactorTrace) {
  EXPECT_EQ(Trace(GoldenMix()), kGoldenFig7Trace)
      << "RankPolicy diverged from the recorded fig7 decisions";
}

TEST_F(PolicyTest, RankPolicyReproducesSixTableTrace) {
  DmvQueryGenerator gen(catalog_, /*seed=*/20070415);
  auto queries = gen.GenerateSixTableMix(12);
  ASSERT_TRUE(queries.ok()) << queries.status();
  EXPECT_EQ(Trace(*queries), kGoldenSixTableTrace)
      << "RankPolicy diverged from the recorded six-table decisions";
}

TEST_F(PolicyTest, ReorderFlagsOffNeverDecides) {
  AdaptiveOptions options;
  options.reorder_inners = false;
  options.reorder_driving = false;
  std::unique_ptr<AdaptationPolicy> policy = MakePolicy(options);
  EXPECT_FALSE(policy->adapts_inners());
  EXPECT_FALSE(policy->adapts_driving());

  // Rank pass for the completeness cross-check: static execution must
  // produce the same row counts, it just never reorders.
  for (const JoinQuery& q : GoldenMix()) {
    auto plan = planner_->Plan(q);
    ASSERT_TRUE(plan.ok()) << plan.status();
    const std::vector<size_t> initial = (*plan)->initial_order;

    AdaptiveOptions rank_options;
    PipelineExecutor rank_exec(plan->get(), rank_options);
    auto rank_stats = rank_exec.Execute(nullptr);
    ASSERT_TRUE(rank_stats.ok()) << q.name;

    PipelineExecutor exec(plan->get(), options);
    auto stats = exec.Execute(nullptr);
    ASSERT_TRUE(stats.ok()) << q.name << ": " << stats.status();

    EXPECT_EQ(stats->policy_decisions, 0u) << q.name;
    EXPECT_EQ(stats->inner_checks, 0u) << q.name;
    EXPECT_EQ(stats->driving_checks, 0u) << q.name;
    EXPECT_EQ(stats->inner_reorders, 0u) << q.name;
    EXPECT_EQ(stats->driving_switches, 0u) << q.name;
    EXPECT_TRUE(stats->events.empty()) << q.name;
    EXPECT_EQ(stats->final_order, initial) << q.name;
    EXPECT_EQ(stats->rows_out, rank_stats->rows_out)
        << q.name << ": static and adaptive runs must agree on the result";
  }
}

}  // namespace
}  // namespace ajr
