#include "adaptive/controller.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "optimize/planner.h"
#include "testing/workload_gen.h"

namespace ajr {
namespace {

// Star query: T0 hub joined to T1, T2, T3.
JoinQuery StarQuery() {
  JoinQuery q;
  q.tables = {{"t0", "T0"}, {"t1", "T1"}, {"t2", "T2"}, {"t3", "T3"}};
  q.edges = {{0, "k", 1, "k", 0}, {0, "k", 2, "k", 1}, {0, "k", 3, "k", 2}};
  q.local_predicates.assign(4, nullptr);
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

TEST(CheckInnerReorderTest, NoChangeWhenAlreadyOrdered) {
  JoinQuery q = StarQuery();
  // JC once T0 placed: T1 = 0.1, T2 = 1, T3 = 10.
  auto in = MakeInputs(&q, {10, 1000, 1000, 1000}, {0.0001, 0.001, 0.01});
  EXPECT_FALSE(CheckInnerReorder(in, {0, 1, 2, 3}, 1).has_value());
}

TEST(CheckInnerReorderTest, ReordersMisorderedTail) {
  JoinQuery q = StarQuery();
  auto in = MakeInputs(&q, {10, 1000, 1000, 1000}, {0.0001, 0.001, 0.01});
  auto tail = CheckInnerReorder(in, {0, 3, 2, 1}, 1);
  ASSERT_TRUE(tail.has_value());
  EXPECT_EQ(*tail, (std::vector<size_t>{1, 2, 3}));
}

TEST(CheckInnerReorderTest, OnlySegmentTailIsTouched) {
  JoinQuery q = StarQuery();
  auto in = MakeInputs(&q, {10, 1000, 1000, 1000}, {0.0001, 0.001, 0.01});
  // From position 2, only {2, 1} can be permuted; ideal is {1, 2}.
  auto tail = CheckInnerReorder(in, {0, 3, 2, 1}, 2);
  ASSERT_TRUE(tail.has_value());
  EXPECT_EQ(*tail, (std::vector<size_t>{1, 2}));
}

TEST(CheckInnerReorderTest, SingleLegTailIsNoop) {
  JoinQuery q = StarQuery();
  auto in = MakeInputs(&q, {10, 1000, 1000, 1000}, {0.0001, 0.001, 0.01});
  EXPECT_FALSE(CheckInnerReorder(in, {0, 1, 2, 3}, 3).has_value());
  EXPECT_FALSE(CheckInnerReorder(in, {0, 1, 2, 3}, 4).has_value());
}

class DrivingSwitchTest : public ::testing::Test {
 protected:
  DrivingSwitchTest() : q_(StarQuery()) {
    in_ = MakeInputs(&q_, {1000, 1000, 1000, 1000}, {0.001, 0.001, 0.001});
  }

  std::vector<DrivingCandidate> Candidates(std::vector<double> raw,
                                           std::vector<double> flow) {
    std::vector<DrivingCandidate> out(raw.size());
    for (size_t i = 0; i < raw.size(); ++i) {
      out[i] = {i, raw[i], flow[i]};
    }
    return out;
  }

  JoinQuery q_;
  CostInputs in_;
  AdaptiveOptions options_;
};

TEST_F(DrivingSwitchTest, SwitchesToMuchCheaperCandidate) {
  // Current driving leg T0 has 100k rows left; T1 would only feed 10.
  auto candidates =
      Candidates({100000, 10, 50000, 50000}, {100000, 10, 50000, 50000});
  auto decision = CheckDrivingSwitch(in_, {0, 1, 2, 3}, candidates, options_);
  ASSERT_TRUE(decision.has_value());
  EXPECT_EQ(decision->new_order[0], 1u);
  EXPECT_EQ(decision->new_order.size(), 4u);
  EXPECT_LT(decision->est_best, decision->est_current);
  // New order is a permutation.
  std::vector<size_t> sorted = decision->new_order;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(sorted, (std::vector<size_t>{0, 1, 2, 3}));
}

TEST_F(DrivingSwitchTest, StaysWhenCurrentIsBest) {
  auto candidates = Candidates({10, 100000, 50000, 50000}, {10, 100000, 50000, 50000});
  EXPECT_FALSE(CheckDrivingSwitch(in_, {0, 1, 2, 3}, candidates, options_).has_value());
}

TEST_F(DrivingSwitchTest, ThresholdSuppressesMarginalSwitches) {
  // T1 is only ~5% cheaper: below the 1.15x default threshold.
  auto candidates =
      Candidates({10000, 9500, 50000, 50000}, {10000, 9500, 50000, 50000});
  AdaptiveOptions strict;
  strict.switch_benefit_threshold = 1.15;
  EXPECT_FALSE(CheckDrivingSwitch(in_, {0, 1, 2, 3}, candidates, strict).has_value());
  // With no hysteresis (threshold 1.0, the paper's behaviour) it switches.
  AdaptiveOptions loose;
  loose.switch_benefit_threshold = 1.0;
  auto decision = CheckDrivingSwitch(in_, {0, 1, 2, 3}, candidates, loose);
  ASSERT_TRUE(decision.has_value());
  EXPECT_EQ(decision->new_order[0], 1u);
}

TEST_F(DrivingSwitchTest, CandidateInnersAreRankOrdered) {
  // Make T3 highly filtering so it should come right after the new driving
  // leg T1 (T0 must come first among inners for connectivity: the star hub).
  in_.edge_sel = {0.001, 0.001, 0.00001};
  auto candidates = Candidates({100000, 10, 500, 500}, {100000, 10, 500, 500});
  auto decision = CheckDrivingSwitch(in_, {0, 1, 2, 3}, candidates, options_);
  ASSERT_TRUE(decision.has_value());
  EXPECT_EQ(decision->new_order[0], 1u);
  // T0 is the only table connected to T1 -> forced second.
  EXPECT_EQ(decision->new_order[1], 0u);
  // Then T3 (rank far below T2).
  EXPECT_EQ(decision->new_order[2], 3u);
}

// ---- Shared Eq 1 / Fig 3 input builder -------------------------------------

/// Three tables chained on `k` (big — mid — small), planned with minimal
/// statistics; every leg starts with cold monitors.
class CheckInputsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    testing::WorkloadSpec spec;
    auto table = [](std::string name, size_t rows, int64_t key_mod) {
      testing::TableSpec t;
      t.name = std::move(name);
      t.columns = {{"k", DataType::kInt64}, {"v", DataType::kInt64}};
      for (size_t i = 0; i < rows; ++i) {
        t.rows.push_back({Value(static_cast<int64_t>(i) % key_mod),
                          Value(static_cast<int64_t>(i))});
      }
      t.indexed_columns = {"k"};
      return t;
    };
    spec.tables.push_back(table("big", 1000, 50));
    spec.tables.push_back(table("mid", 50, 50));
    spec.tables.push_back(table("small", 10, 10));
    JoinQuery& q = spec.query;
    q.name = "check_inputs";
    q.tables = {{"big", "big"}, {"mid", "mid"}, {"small", "small"}};
    q.edges = {{0, "k", 1, "k", 0}, {1, "k", 2, "k", 1}};
    q.local_predicates = {nullptr, nullptr, nullptr};
    q.output = {{0, "v"}};
    auto catalog = spec.Materialize();
    ASSERT_TRUE(catalog.ok()) << catalog.status();
    catalog_ = std::move(*catalog);
    Planner planner(catalog_.get(), PlannerOptions{StatsTier::kMinimal});
    auto plan = planner.Plan(spec.query);
    ASSERT_TRUE(plan.ok()) << plan.status();
    plan_ = std::move(*plan);

    inner_.assign(3, LegMonitor());
    driving_.assign(3, DrivingMonitor());
    edges_.assign(2, EdgeMonitor());
    views_.resize(3);
    for (size_t t = 0; t < 3; ++t) {
      views_[t].inner = &inner_[t];
      views_[t].driving = &driving_[t];
    }
  }

  double Card(size_t t) const {
    return static_cast<double>(plan_->entries[t]->StatsCardinality());
  }

  std::unique_ptr<Catalog> catalog_;
  std::unique_ptr<PipelinePlan> plan_;
  std::vector<LegMonitor> inner_;
  std::vector<DrivingMonitor> driving_;
  std::vector<EdgeMonitor> edges_;
  std::vector<LegView> views_;
  AdaptiveOptions options_;
};

TEST_F(CheckInputsTest, DemotedLegLocalSelIsScaledByItsRemainder) {
  views_[1].demoted_fraction = 0.25;
  CostInputs in = BuildInnerCheckInputs(*plan_, views_, edges_, options_);
  ASSERT_EQ(in.tables.size(), 3u);
  EXPECT_EQ(in.tables[0].local_sel, plan_->est_local_sel[0]);
  EXPECT_EQ(in.tables[1].local_sel, plan_->est_local_sel[1] * 0.25);
  EXPECT_EQ(in.tables[2].local_sel, plan_->est_local_sel[2]);
  EXPECT_EQ(in.tables[1].cardinality, Card(1));
  EXPECT_EQ(in.edge_sel, plan_->est_edge_sel);  // cold edge monitors
}

TEST_F(CheckInputsTest, NeverDrivenCandidateUsesOptimizerScanEstimate) {
  views_[0].ever_driven = true;
  views_[0].total_entries = Card(0);
  views_[0].remaining_entries = Card(0);
  DrivingCheckInputs check =
      BuildDrivingCheckInputs(*plan_, views_, edges_, options_, /*current=*/0);
  ASSERT_EQ(check.candidates.size(), 3u);
  for (size_t t : {size_t{1}, size_t{2}}) {
    const DrivingCandidate& cand = check.candidates[t];
    EXPECT_EQ(cand.table, t);
    EXPECT_EQ(cand.raw_entries, plan_->access[t].driving.est_slpi * Card(t));
    EXPECT_EQ(cand.flow, check.inputs.tables[t].local_sel * Card(t));
  }
}

TEST_F(CheckInputsTest, CurrentDrivingLegAnticipatesItsDemotion) {
  // The current leg has 400 of its 1000 entries left; a leg demoted
  // earlier froze 30 remaining entries.
  views_[0].ever_driven = true;
  views_[0].total_entries = 1000;
  views_[0].remaining_entries = 400;
  views_[2].ever_driven = true;
  views_[2].total_entries = 10;
  views_[2].remaining_entries = 3;
  views_[2].demoted_fraction = 0.3;
  DrivingCheckInputs check =
      BuildDrivingCheckInputs(*plan_, views_, edges_, options_, /*current=*/0);
  EXPECT_EQ(check.inputs.tables[0].local_sel, plan_->est_local_sel[0] * 0.4);
  EXPECT_EQ(check.candidates[0].raw_entries, 400);
  EXPECT_EQ(check.candidates[2].raw_entries, 3);
  // Only the current leg anticipates; the demoted one keeps its own scale.
  EXPECT_EQ(check.inputs.tables[2].local_sel, plan_->est_local_sel[2] * 0.3);
  // Cold driving monitors: S_LPR = S_LP / S_LPI from the optimizer.
  const double s_lpr = plan_->est_local_sel[0] / plan_->access[0].driving.est_slpi;
  EXPECT_EQ(check.candidates[0].flow, 400 * std::min(1.0, s_lpr));
}

TEST_F(CheckInputsTest, LegBelowMinSamplesFallsBackToTheEstimate) {
  // Five incoming rows, none passing the local predicate: enough for an
  // inner check's sample floor, too few for a driving check's.
  for (int i = 0; i < 5; ++i) inner_[1].RecordIncomingRow(1, 0, 1);
  options_.min_leg_samples = 16;
  views_[0].ever_driven = true;
  views_[0].total_entries = Card(0);
  views_[0].remaining_entries = Card(0);
  CostInputs inner = BuildInnerCheckInputs(*plan_, views_, edges_, options_);
  EXPECT_LT(inner.tables[1].local_sel, plan_->est_local_sel[1]);
  DrivingCheckInputs driving =
      BuildDrivingCheckInputs(*plan_, views_, edges_, options_, /*current=*/0);
  EXPECT_EQ(driving.inputs.tables[1].local_sel, plan_->est_local_sel[1]);
}

}  // namespace
}  // namespace ajr
