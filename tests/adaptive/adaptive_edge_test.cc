// Edge cases of the adaptive decision machinery: the CheckDrivingSwitch
// benefit threshold exactly at its boundary, cold monitors below
// min_leg_samples, and the check back-off schedule.

#include <gtest/gtest.h>

#include "adaptive/controller.h"
#include "adaptive/monitor.h"

namespace ajr {
namespace {

// ---------------------------------------------------------------- backoff

TEST(CheckBackoffTest, StartsAtBase) {
  CheckBackoff b(10, /*enabled=*/true);
  EXPECT_EQ(b.interval(), 10u);
}

TEST(CheckBackoffTest, UnproductiveChecksDoubleTheInterval) {
  CheckBackoff b(10, true);
  b.OnUnproductiveCheck();
  EXPECT_EQ(b.interval(), 20u);
  b.OnUnproductiveCheck();
  EXPECT_EQ(b.interval(), 40u);
  b.OnUnproductiveCheck();
  EXPECT_EQ(b.interval(), 80u);
}

TEST(CheckBackoffTest, CapsAtBaseTimesMaxBackoff) {
  CheckBackoff b(10, true);
  for (int i = 0; i < 20; ++i) b.OnUnproductiveCheck();
  EXPECT_EQ(b.interval(), 10u * AdaptiveOptions::kMaxBackoff);
  b.OnUnproductiveCheck();  // already capped: stays put
  EXPECT_EQ(b.interval(), 10u * AdaptiveOptions::kMaxBackoff);
}

TEST(CheckBackoffTest, ReorderResetsToBase) {
  CheckBackoff b(10, true);
  for (int i = 0; i < 5; ++i) b.OnUnproductiveCheck();
  ASSERT_GT(b.interval(), 10u);
  b.OnReorder();
  EXPECT_EQ(b.interval(), 10u);
  // And the schedule restarts from the base afterwards.
  b.OnUnproductiveCheck();
  EXPECT_EQ(b.interval(), 20u);
}

TEST(CheckBackoffTest, DisabledKeepsConstantInterval) {
  CheckBackoff b(10, /*enabled=*/false);
  for (int i = 0; i < 5; ++i) b.OnUnproductiveCheck();
  EXPECT_EQ(b.interval(), 10u);  // the paper's fixed c
  b.OnReorder();
  EXPECT_EQ(b.interval(), 10u);
}

TEST(CheckBackoffTest, ZeroBaseIsClampedToOne) {
  CheckBackoff b(0, true);
  EXPECT_EQ(b.interval(), 1u);
  b.OnUnproductiveCheck();
  EXPECT_EQ(b.interval(), 2u);
}

// ------------------------------------------------------- EffectiveLocalSel

TEST(EffectiveLocalSelTest, NoDataUsesOptimizerEstimate) {
  LegMonitor inner;
  DrivingMonitor driving;
  EXPECT_DOUBLE_EQ(EffectiveLocalSel(inner, driving, 0.25, 0.5, 16), 0.25);
}

TEST(EffectiveLocalSelTest, ColdMonitorBelowFloorDoesNotOverrideOptimizer) {
  // 5 incoming rows, every one filtered out: a young monitor reading zero.
  // Below min_leg_samples the optimizer estimate must win — otherwise the
  // cold zero makes whole candidate plans look free.
  LegMonitor inner;
  DrivingMonitor driving;
  for (int i = 0; i < 5; ++i) inner.RecordIncomingRow(1.0, 0.0, 3.0);
  ASSERT_GT(inner.incoming_total(), 0u);
  ASSERT_LT(inner.incoming_total(), 16u);
  EXPECT_DOUBLE_EQ(EffectiveLocalSel(inner, driving, 0.25, 0.5, 16), 0.25);
}

TEST(EffectiveLocalSelTest, WarmMonitorOverridesOptimizer) {
  LegMonitor inner;
  DrivingMonitor driving;
  // 32 incoming rows at measured selectivity 0.5 >> optimizer's 0.01.
  for (int i = 0; i < 32; ++i) inner.RecordIncomingRow(1.0, i % 2 ? 1.0 : 0.0, 3.0);
  ASSERT_GE(inner.incoming_total(), 16u);
  double got = EffectiveLocalSel(inner, driving, 0.01, 0.5, 16);
  EXPECT_DOUBLE_EQ(got, inner.LocalSel(0.01));
  EXPECT_GT(got, 0.25);  // clearly the measurement, not the 0.01 estimate
}

TEST(EffectiveLocalSelTest, FloorBoundaryIsInclusive) {
  LegMonitor inner;
  DrivingMonitor driving;
  for (int i = 0; i < 16; ++i) inner.RecordIncomingRow(1.0, 1.0, 3.0);
  ASSERT_EQ(inner.incoming_total(), 16u);
  // Exactly at min_leg_samples the monitor qualifies.
  EXPECT_DOUBLE_EQ(EffectiveLocalSel(inner, driving, 0.01, 0.5, 16),
                   inner.LocalSel(0.01));
}

TEST(EffectiveLocalSelTest, LegThatDroveComposesSlpiWithResidual) {
  // Eq 9: S_LP = S_LPI (optimizer) * S_LPR (measured while driving).
  LegMonitor inner;
  DrivingMonitor driving;
  for (int i = 0; i < 100; ++i) driving.RecordScannedEntry(i % 4 == 0);
  ASSERT_EQ(inner.incoming_total(), 0u);
  double got = EffectiveLocalSel(inner, driving, 0.9, 0.5, 16);
  EXPECT_DOUBLE_EQ(got, 0.5 * driving.ResidualSel(1.0));
  EXPECT_NEAR(got, 0.5 * 0.25, 1e-9);
}

TEST(EffectiveLocalSelTest, WarmInnerMonitorWinsOverDrivingHistory) {
  LegMonitor inner;
  DrivingMonitor driving;
  for (int i = 0; i < 100; ++i) driving.RecordScannedEntry(false);
  for (int i = 0; i < 32; ++i) inner.RecordIncomingRow(1.0, 1.0, 3.0);
  EXPECT_DOUBLE_EQ(EffectiveLocalSel(inner, driving, 0.1, 0.5, 16),
                   inner.LocalSel(0.1));
}

// -------------------------------------------- driving-switch threshold edge

class ThresholdBoundaryTest : public ::testing::Test {
 protected:
  ThresholdBoundaryTest() {
    q_.tables = {{"t0", "T0"}, {"t1", "T1"}, {"t2", "T2"}, {"t3", "T3"}};
    q_.edges = {{0, "k", 1, "k", 0}, {0, "k", 2, "k", 1}, {0, "k", 3, "k", 2}};
    q_.local_predicates.assign(4, nullptr);
    in_.query = &q_;
    in_.tables.resize(4);
    for (auto& t : in_.tables) {
      t.cardinality = 1000;
      t.local_sel = 1.0;
      t.index_height = 2;
    }
    in_.edge_sel = {0.001, 0.001, 0.001};
    candidates_.resize(4);
    // T1 would feed far fewer rows than the current driving leg T0.
    double raw[] = {10000, 6000, 50000, 50000};
    for (size_t i = 0; i < 4; ++i) candidates_[i] = {i, raw[i], raw[i]};
  }

  JoinQuery q_;
  CostInputs in_;
  std::vector<DrivingCandidate> candidates_;
  const std::vector<size_t> order_ = {0, 1, 2, 3};
};

TEST_F(ThresholdBoundaryTest, ThresholdExactlyAtBenefitRatioFires) {
  // Measure the actual benefit ratio with no hysteresis...
  AdaptiveOptions loose;
  loose.switch_benefit_threshold = 1.0;
  auto baseline = CheckDrivingSwitch(in_, order_, candidates_, loose);
  ASSERT_TRUE(baseline.has_value());
  ASSERT_GT(baseline->est_current, baseline->est_best);
  const double ratio = baseline->est_current / baseline->est_best;

  // ...then pin the threshold to that ratio. The contract is strict
  // less-than ("not enough benefit" only when current < best * threshold),
  // so at the exact boundary the switch FIRES. Probe one ulp-scale step on
  // each side of the boundary to make the test robust to rounding in
  // best * threshold.
  AdaptiveOptions at_boundary;
  at_boundary.switch_benefit_threshold = ratio * (1.0 - 1e-9);
  auto fires = CheckDrivingSwitch(in_, order_, candidates_, at_boundary);
  ASSERT_TRUE(fires.has_value());
  EXPECT_EQ(fires->new_order[0], 1u);

  AdaptiveOptions above_boundary;
  above_boundary.switch_benefit_threshold = ratio * (1.0 + 1e-9);
  EXPECT_FALSE(
      CheckDrivingSwitch(in_, order_, candidates_, above_boundary).has_value());
}

TEST_F(ThresholdBoundaryTest, ThresholdBelowOneStillRequiresAWinningCandidate) {
  // Even with a permissive threshold, a current plan that is already the
  // cheapest must not switch: the candidate scan (best_order) only exists
  // when some candidate costs strictly less than the current plan.
  for (size_t i = 0; i < 4; ++i) candidates_[i].raw_entries = candidates_[i].flow = 50000;
  candidates_[0].raw_entries = candidates_[0].flow = 10;  // current is best
  AdaptiveOptions permissive;
  permissive.switch_benefit_threshold = 0.5;
  EXPECT_FALSE(
      CheckDrivingSwitch(in_, order_, candidates_, permissive).has_value());
}

}  // namespace
}  // namespace ajr
