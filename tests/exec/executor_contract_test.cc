// Executor API contracts: the single-use rule, cancellation/deadline status
// surfacing, and the driving-check back-off schedule observed end to end.

#include <gtest/gtest.h>

#include <chrono>
#include <vector>

#include "adaptive/controller.h"
#include "common/cancellation.h"
#include "exec/pipeline_executor.h"
#include "workload/dmv.h"
#include "workload/templates.h"

namespace ajr {
namespace {

class ExecutorContractTest : public ::testing::Test {
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

  static std::unique_ptr<PipelinePlan> Plan(const JoinQuery& q) {
    auto plan = planner_->Plan(q);
    EXPECT_TRUE(plan.ok()) << plan.status();
    return plan.ok() ? std::move(*plan) : nullptr;
  }

  static Catalog* catalog_;
  static Planner* planner_;
};

Catalog* ExecutorContractTest::catalog_ = nullptr;
Planner* ExecutorContractTest::planner_ = nullptr;

// ------------------------------------------------------------- single-use

TEST_F(ExecutorContractTest, SecondExecuteReturnsInternalError) {
  auto plan = Plan(DmvQueryGenerator::Example1());
  ASSERT_NE(plan, nullptr);
  PipelineExecutor exec(plan.get());
  auto first = exec.Execute(nullptr);
  ASSERT_TRUE(first.ok()) << first.status();
  auto second = exec.Execute(nullptr);
  ASSERT_FALSE(second.ok());
  EXPECT_EQ(second.status().code(), StatusCode::kInternal);
  EXPECT_NE(second.status().message().find("single-use"), std::string::npos)
      << second.status();
}

TEST_F(ExecutorContractTest, SingleUseHoldsEvenAfterAnEarlyStop) {
  // A run terminated by cancellation still consumes the executor.
  auto plan = Plan(DmvQueryGenerator::Example1());
  ASSERT_NE(plan, nullptr);
  CancellationToken token;
  token.Cancel();
  PipelineExecutor exec(plan.get());
  exec.set_cancellation_token(&token);
  EXPECT_EQ(exec.Execute(nullptr).status().code(), StatusCode::kCancelled);
  EXPECT_EQ(exec.Execute(nullptr).status().code(), StatusCode::kInternal);
}

// ------------------------------------------------- cancellation & deadline

TEST_F(ExecutorContractTest, PreCancelledTokenStopsBeforeAnyRow) {
  auto plan = Plan(DmvQueryGenerator::Example1());
  ASSERT_NE(plan, nullptr);
  CancellationToken token;
  token.Cancel();
  PipelineExecutor exec(plan.get());
  exec.set_cancellation_token(&token);
  size_t rows = 0;
  auto stats = exec.Execute([&rows](const Row&) { ++rows; });
  ASSERT_FALSE(stats.ok());
  EXPECT_EQ(stats.status().code(), StatusCode::kCancelled);
  EXPECT_EQ(rows, 0u);
}

TEST_F(ExecutorContractTest, ExpiredDeadlineSurfacesDeadlineExceeded) {
  auto plan = Plan(DmvQueryGenerator::Example1());
  ASSERT_NE(plan, nullptr);
  CancellationToken token;
  token.set_deadline(std::chrono::steady_clock::now() -
                     std::chrono::milliseconds(1));
  PipelineExecutor exec(plan.get());
  exec.set_cancellation_token(&token);
  auto stats = exec.Execute(nullptr);
  ASSERT_FALSE(stats.ok());
  // Distinct from kCancelled: callers must be able to tell the two apart.
  EXPECT_EQ(stats.status().code(), StatusCode::kDeadlineExceeded);
}

TEST_F(ExecutorContractTest, NullTokenRunsToCompletion) {
  auto plan = Plan(DmvQueryGenerator::Example1());
  ASSERT_NE(plan, nullptr);
  PipelineExecutor exec(plan.get());
  exec.set_cancellation_token(nullptr);
  EXPECT_TRUE(exec.Execute(nullptr).ok());
}

// --------------------------------------------------- back-off integration

// Mirror of the executor's level-0 check cadence: a check fires when
// `interval()` rows were produced since the last check, every check backs
// off (a switch included), and one trailing opportunity exists between the
// final row and scan depletion.
uint64_t SimulateDrivingChecks(uint64_t rows_produced, uint64_t c, bool backoff) {
  CheckBackoff b(c, backoff);
  uint64_t produced = 0;
  uint64_t checks = 0;
  for (uint64_t r = 0; r < rows_produced; ++r) {
    if (produced >= b.interval()) {
      ++checks;
      produced = 0;
      b.OnUnproductiveCheck();
    }
    ++produced;
  }
  if (produced >= b.interval()) ++checks;
  return checks;
}

TEST_F(ExecutorContractTest, DrivingCheckCadenceMatchesBackoffSchedule) {
  // Threshold so high that no switch can ever fire: every check is
  // unproductive, so stats.driving_checks must equal the pure schedule.
  for (bool backoff : {false, true}) {
    AdaptiveOptions options;
    options.reorder_inners = false;
    options.reorder_driving = true;
    options.check_frequency = 10;
    options.check_backoff = backoff;
    options.switch_benefit_threshold = 1e18;

    auto plan = Plan(DmvQueryGenerator::Example1());
    ASSERT_NE(plan, nullptr);
    PipelineExecutor exec(plan.get(), options);
    auto stats = exec.Execute(nullptr);
    ASSERT_TRUE(stats.ok()) << stats.status();
    ASSERT_EQ(stats->driving_switches, 0u);
    ASSERT_GT(stats->driving_rows_produced, 100u)
        << "query too small to exercise the schedule";
    EXPECT_EQ(stats->driving_checks,
              SimulateDrivingChecks(stats->driving_rows_produced, 10, backoff))
        << "backoff=" << backoff;
  }

  // A driving switch counts as an ordinary check: at the default threshold,
  // over runs that do switch, the cadence is still the pure schedule.
  DmvQueryGenerator gen(catalog_, /*seed=*/20070415);
  auto fig7 = gen.GenerateMix(20);
  auto six = gen.GenerateSixTableMix(100);
  ASSERT_TRUE(fig7.ok()) << fig7.status();
  ASSERT_TRUE(six.ok()) << six.status();
  std::vector<JoinQuery> queries = std::move(*fig7);
  queries.insert(queries.end(), six->begin(), six->end());
  size_t switched = 0;
  for (bool backoff : {false, true}) {
    AdaptiveOptions options;
    options.check_backoff = backoff;
    for (const JoinQuery& q : queries) {
      auto plan = Plan(q);
      ASSERT_NE(plan, nullptr);
      PipelineExecutor exec(plan.get(), options);
      auto stats = exec.Execute(nullptr);
      ASSERT_TRUE(stats.ok()) << q.name << ": " << stats.status();
      if (stats->driving_switches > 0) ++switched;
      EXPECT_EQ(stats->driving_checks,
                SimulateDrivingChecks(stats->driving_rows_produced,
                                      options.check_frequency, backoff))
          << q.name << " backoff=" << backoff
          << " switches=" << stats->driving_switches;
    }
  }
  EXPECT_GT(switched, 0u) << "no run switched; the case tests nothing";
}

TEST_F(ExecutorContractTest, BackoffReducesCheckCountOnStableRuns) {
  ExecStats fixed, backed_off;
  for (bool backoff : {false, true}) {
    AdaptiveOptions options;
    options.reorder_inners = false;
    options.reorder_driving = true;
    options.check_frequency = 10;
    options.check_backoff = backoff;
    options.switch_benefit_threshold = 1e18;
    auto plan = Plan(DmvQueryGenerator::Example1());
    ASSERT_NE(plan, nullptr);
    PipelineExecutor exec(plan.get(), options);
    auto stats = exec.Execute(nullptr);
    ASSERT_TRUE(stats.ok()) << stats.status();
    (backoff ? backed_off : fixed) = *stats;
  }
  // Same work, far fewer checks.
  EXPECT_EQ(backed_off.rows_out, fixed.rows_out);
  EXPECT_EQ(backed_off.driving_rows_produced, fixed.driving_rows_produced);
  EXPECT_LT(backed_off.driving_checks, fixed.driving_checks / 2);
}

}  // namespace
}  // namespace ajr
