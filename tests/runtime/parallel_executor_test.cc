// Morsel-parallel executor tests (ctest label: stress; run under TSan).
//
// The contract under test, per ISSUE 5:
//   * dop <= 1 is the untouched serial path — bit-identical rows, work
//     units, stats, and event log to a plain PipelineExecutor run;
//   * dop > 1 preserves the row MULTISET (interleaving is free), and the
//     merged stats account for every worker's output;
//   * adaptation still happens: the shared coordinator's merged-statistics
//     checks produce driving switches on the paper's misestimated
//     templates, and switched runs stay exact;
//   * the MorselDriver dispenses the driving scan exactly once regardless
//     of morsel size;
//   * WorkerLease degrades dop on a busy pool instead of deadlocking.

#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <mutex>
#include <set>
#include <vector>

#include "exec/adaptive_coordinator.h"
#include "exec/pipeline_executor.h"
#include "exec/reference_executor.h"
#include "runtime/morsel.h"
#include "runtime/parallel_executor.h"
#include "runtime/thread_pool.h"
#include "runtime/worker_lease.h"
#include "testing/oracle.h"
#include "workload/dmv.h"
#include "workload/templates.h"

namespace ajr {
namespace {

class ParallelExecutorTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    catalog_ = new Catalog();
    DmvConfig config;
    config.num_owners = 3000;
    ASSERT_TRUE(GenerateDmv(catalog_, config).ok());
    // Minimal statistics: initial plans carry the misestimates that make
    // run-time reordering fire (the paper's baseline).
    planner_ = new Planner(catalog_, PlannerOptions{StatsTier::kMinimal});
  }
  static void TearDownTestSuite() {
    delete planner_;
    delete catalog_;
    catalog_ = nullptr;
    planner_ = nullptr;
  }

  static StatusOr<std::unique_ptr<PipelinePlan>> Plan(const JoinQuery& q) {
    return planner_->Plan(q);
  }

  static ExecStats RunSerial(const PipelinePlan* plan, AdaptiveOptions options,
                             std::vector<Row>* rows_out) {
    PipelineExecutor exec(plan, options);
    std::vector<Row> rows;
    auto stats = exec.Execute([&rows](const Row& r) { rows.push_back(r); });
    EXPECT_TRUE(stats.ok()) << stats.status();
    if (rows_out != nullptr) *rows_out = std::move(rows);
    return stats.ok() ? *stats : ExecStats{};
  }

  static ExecStats RunParallel(const PipelinePlan* plan,
                               AdaptiveOptions options,
                               ParallelExecOptions parallel,
                               std::vector<Row>* rows_out) {
    ParallelPipelineExecutor exec(plan, options, parallel);
    std::vector<Row> rows;
    auto stats = exec.Execute([&rows](const Row& r) { rows.push_back(r); });
    EXPECT_TRUE(stats.ok()) << stats.status();
    if (rows_out != nullptr) *rows_out = std::move(rows);
    return stats.ok() ? *stats : ExecStats{};
  }

  static std::vector<Row> Reference(const JoinQuery& q) {
    auto rows = ExecuteReference(*catalog_, q);
    EXPECT_TRUE(rows.ok()) << rows.status();
    std::vector<Row> out = rows.ok() ? *rows : std::vector<Row>{};
    SortRows(&out);
    return out;
  }

  /// The adaptive_behavior_test settings that make switches deterministic
  /// enough to assert on: no backoff, no hysteresis margins.
  static AdaptiveOptions Strict() {
    AdaptiveOptions o;
    o.check_backoff = false;
    o.inner_benefit_epsilon = 0.0;
    o.switch_benefit_threshold = 1.0;
    o.min_edge_pairs = 1.0;
    o.min_leg_samples = 4;
    return o;
  }

  static Catalog* catalog_;
  static Planner* planner_;
};

Catalog* ParallelExecutorTest::catalog_ = nullptr;
Planner* ParallelExecutorTest::planner_ = nullptr;

// dop = 1 must be the serial executor verbatim: same rows IN THE SAME
// ORDER, same work units, same adaptation events. This is the PR's
// determinism contract (fig7/fig11 reproductions must not move).
TEST_F(ParallelExecutorTest, Dop1BitIdenticalToSerial) {
  DmvQueryGenerator gen(catalog_);
  for (int t = 1; t <= kNumFourTableTemplates; ++t) {
    for (size_t v = 0; v < 3; ++v) {
      auto q = gen.Generate(t, v);
      ASSERT_TRUE(q.ok()) << q.status();
      auto plan = Plan(*q);
      ASSERT_TRUE(plan.ok()) << plan.status();

      std::vector<Row> serial_rows;
      ExecStats serial = RunSerial(plan->get(), Strict(), &serial_rows);

      ParallelExecOptions parallel;
      parallel.dop = 1;
      parallel.morsel_size = 7;  // must be ignored on the serial path
      std::vector<Row> par_rows;
      ExecStats par = RunParallel(plan->get(), Strict(), parallel, &par_rows);

      EXPECT_EQ(par_rows, serial_rows) << "T" << t << " v" << v;
      EXPECT_EQ(par.rows_out, serial.rows_out);
      EXPECT_EQ(par.work_units, serial.work_units) << "T" << t << " v" << v;
      EXPECT_EQ(par.driving_rows_produced, serial.driving_rows_produced);
      EXPECT_EQ(par.inner_checks, serial.inner_checks);
      EXPECT_EQ(par.inner_reorders, serial.inner_reorders);
      EXPECT_EQ(par.driving_checks, serial.driving_checks);
      EXPECT_EQ(par.driving_switches, serial.driving_switches);
      EXPECT_EQ(par.initial_order, serial.initial_order);
      EXPECT_EQ(par.final_order, serial.final_order);
      EXPECT_EQ(par.events, serial.events) << "T" << t << " v" << v;
      EXPECT_EQ(par.parallel_workers, 0u)
          << "serial delegation must not report a fleet";
    }
  }
}

// dop > 1: the row multiset equals the reference for every template, at
// several dops and morsel sizes, with adaptation fully on.
TEST_F(ParallelExecutorTest, ParallelRowMultisetMatchesReference) {
  DmvQueryGenerator gen(catalog_);
  const size_t kDops[] = {2, 4};
  const size_t kMorsels[] = {3, 64};
  for (int t = 1; t <= kNumFourTableTemplates; ++t) {
    auto q = gen.Generate(t, 1);
    ASSERT_TRUE(q.ok()) << q.status();
    auto plan = Plan(*q);
    ASSERT_TRUE(plan.ok()) << plan.status();
    std::vector<Row> expected = Reference(*q);

    for (size_t dop : kDops) {
      for (size_t morsel : kMorsels) {
        ParallelExecOptions parallel;
        parallel.dop = dop;
        parallel.morsel_size = morsel;
        std::vector<Row> rows;
        ExecStats stats =
            RunParallel(plan->get(), Strict(), parallel, &rows);
        SortRows(&rows);
        EXPECT_EQ(rows, expected)
            << "T" << t << " dop=" << dop << " morsel=" << morsel;
        EXPECT_EQ(stats.rows_out, expected.size());
      }
    }
  }
}

// Six-table plans cross more inner levels and reorder more; same contract.
TEST_F(ParallelExecutorTest, SixTableParallelMatchesReference) {
  DmvQueryGenerator gen(catalog_);
  for (int t = 1; t <= kNumSixTableTemplates; ++t) {
    auto q = gen.GenerateSixTable(t, 0);
    ASSERT_TRUE(q.ok()) << q.status();
    auto plan = Plan(*q);
    ASSERT_TRUE(plan.ok()) << plan.status();
    std::vector<Row> expected = Reference(*q);

    ParallelExecOptions parallel;
    parallel.dop = 4;
    parallel.morsel_size = 16;
    std::vector<Row> rows;
    ExecStats stats = RunParallel(plan->get(), Strict(), parallel, &rows);
    SortRows(&rows);
    EXPECT_EQ(rows, expected) << "S" << t;
    EXPECT_EQ(stats.rows_out, expected.size());
  }
}

// Merged stats must account for the whole fleet: every worker's rows sum
// to the total, morsels and folds are reported, and per-worker stats are
// exposed.
TEST_F(ParallelExecutorTest, MergedStatsAccountForTheFleet) {
  DmvQueryGenerator gen(catalog_);
  auto q = gen.Generate(3, 0);
  ASSERT_TRUE(q.ok()) << q.status();
  auto plan = Plan(*q);
  ASSERT_TRUE(plan.ok()) << plan.status();

  ParallelExecOptions parallel;
  parallel.dop = 4;
  parallel.morsel_size = 8;
  ParallelPipelineExecutor exec(plan->get(), Strict(), parallel);
  std::vector<Row> rows;
  std::mutex mu;
  auto stats = exec.Execute([&rows, &mu](const Row& r) {
    std::lock_guard<std::mutex> lock(mu);
    rows.push_back(r);
  });
  ASSERT_TRUE(stats.ok()) << stats.status();

  EXPECT_EQ(stats->rows_out, rows.size());
  EXPECT_GE(stats->parallel_workers, 1u);
  EXPECT_LE(stats->parallel_workers, 4u);
  EXPECT_GT(stats->morsels, 1u) << "morsel_size=8 must split the scan";
  EXPECT_GT(stats->monitor_folds, 0u);

  ASSERT_EQ(exec.worker_stats().size(), 4u);
  uint64_t worker_rows = 0;
  uint64_t worker_morsels = 0;
  for (const ExecStats& ws : exec.worker_stats()) {
    worker_rows += ws.rows_out;
    worker_morsels += ws.morsels;
  }
  EXPECT_EQ(worker_rows, stats->rows_out);
  EXPECT_EQ(worker_morsels, stats->morsels);
}

// The point of the shared coordinator: merged-statistics checks still
// produce driving switches on the misestimated templates, and the
// switched runs remain exact. Mirrors adaptive_behavior_test's
// DrivingSwitchesActuallyOccurAcrossTheMix at dop = 4.
TEST_F(ParallelExecutorTest, DrivingSwitchesOccurUnderMergedStatistics) {
  DmvQueryGenerator gen(catalog_);
  uint64_t switches = 0;
  for (int t = 1; t <= kNumFourTableTemplates; ++t) {
    for (size_t v = 0; v < 4; ++v) {
      auto q = gen.Generate(t, v);
      ASSERT_TRUE(q.ok()) << q.status();
      auto plan = Plan(*q);
      ASSERT_TRUE(plan.ok()) << plan.status();
      std::vector<Row> expected = Reference(*q);

      ParallelExecOptions parallel;
      parallel.dop = 4;
      parallel.morsel_size = 8;   // frequent barriers: switches can land
      parallel.fold_interval = 1; // fold after every morsel
      std::vector<Row> rows;
      ExecStats stats =
          RunParallel(plan->get(), Strict(), parallel, &rows);
      SortRows(&rows);
      ASSERT_EQ(rows, expected) << "T" << t << " v" << v << " diverged after "
                                << stats.driving_switches << " switches";
      switches += stats.driving_switches;
    }
  }
  EXPECT_GT(switches, 0u)
      << "no parallel run ever switched its driving leg; the coordinator "
         "checks are vacuous";
}

// The MorselDriver must dispense the promoted scan exactly once: the
// concatenation of small morsels equals one giant morsel, in order.
TEST_F(ParallelExecutorTest, MorselDriverDispensesScanExactlyOnce) {
  DmvQueryGenerator gen(catalog_);
  auto q = gen.Generate(2, 0);
  ASSERT_TRUE(q.ok()) << q.status();
  auto plan = Plan(*q);
  ASSERT_TRUE(plan.ok()) << plan.status();
  const size_t t0 = (*plan)->initial_order[0];

  auto drain = [&](size_t morsel_size) {
    MorselDriver driver(plan->get(), morsel_size, /*record_positions=*/false);
    EXPECT_TRUE(driver.Promote(t0).ok());
    std::vector<Rid> rids;
    ParallelMorsel m;
    while (driver.Fill(&m)) {
      EXPECT_LE(m.rids.size(), morsel_size);
      rids.insert(rids.end(), m.rids.begin(), m.rids.end());
      EXPECT_TRUE(driver.high_water().has_value());
    }
    EXPECT_EQ(driver.dispensed_entries(t0),
              static_cast<double>(rids.size()));
    return rids;
  };

  std::vector<Rid> small = drain(3);
  std::vector<Rid> large = drain(1u << 20);
  EXPECT_EQ(small, large);
  EXPECT_FALSE(small.empty());
  std::set<Rid> unique(small.begin(), small.end());
  EXPECT_EQ(unique.size(), small.size()) << "dispenser duplicated an entry";
}

// A lease on a fully busy pool must revoke its tasks and return without
// deadlock (the caller then runs as the only worker); on an idle pool the
// tasks actually run.
TEST_F(ParallelExecutorTest, WorkerLeaseDegradesOnBusyPoolAndRunsOnIdle) {
  // Busy pool: its single thread is parked on a gate, so no lease task
  // can start; Finish() must revoke all of them and return immediately.
  {
    ThreadPool pool(1);
    std::mutex mu;
    std::condition_variable cv;
    bool release = false;
    pool.Submit([&] {
      std::unique_lock<std::mutex> lock(mu);
      cv.wait(lock, [&] { return release; });
    });
    std::atomic<int> ran{0};
    {
      WorkerLease lease(&pool, 3, [&](size_t) { ran.fetch_add(1); });
      lease.Finish();
      EXPECT_EQ(lease.started(), 0u);
    }
    EXPECT_EQ(ran.load(), 0);
    {
      std::lock_guard<std::mutex> lock(mu);
      release = true;
    }
    cv.notify_all();
    pool.Shutdown();
    EXPECT_EQ(ran.load(), 0) << "revoked task ran after Finish()";
  }
  // Idle pool: both tasks start (2 threads, 2 tasks), Finish waits for
  // them, started() reports the truth.
  {
    ThreadPool pool(2);
    std::mutex mu;
    std::condition_variable cv;
    size_t running = 0;
    bool release = false;
    std::atomic<int> ran{0};
    WorkerLease lease(&pool, 2, [&](size_t) {
      {
        std::unique_lock<std::mutex> lock(mu);
        ++running;
        cv.notify_all();
        cv.wait(lock, [&] { return release; });
      }
      ran.fetch_add(1);
    });
    {
      std::unique_lock<std::mutex> lock(mu);
      cv.wait(lock, [&] { return running == 2; });
      release = true;
    }
    cv.notify_all();
    lease.Finish();
    EXPECT_EQ(lease.started(), 2u);
    EXPECT_EQ(ran.load(), 2);
    pool.Shutdown();
  }
}

// Per-worker invariant checkers through the public observer hook: I1-I5
// hold on every worker pipeline, and no RID tuple is emitted by two
// workers (the cross-worker half of Sec 4.2's duplicate prevention).
TEST_F(ParallelExecutorTest, PerWorkerInvariantsAndCrossWorkerUniqueness) {
  DmvQueryGenerator gen(catalog_);
  auto q = gen.Generate(4, 0);  // the paper's degradation template
  ASSERT_TRUE(q.ok()) << q.status();
  auto plan = Plan(*q);
  ASSERT_TRUE(plan.ok()) << plan.status();

  std::vector<size_t> cards;
  for (const TableEntry* entry : (*plan)->entries) {
    cards.push_back(entry->table().num_rows());
  }

  constexpr size_t kDop = 4;
  std::vector<std::unique_ptr<testing::InvariantChecker>> checkers;
  std::vector<ExecObserver*> observers;
  for (size_t w = 0; w < kDop; ++w) {
    checkers.push_back(std::make_unique<testing::InvariantChecker>(cards));
    observers.push_back(checkers.back().get());
  }

  ParallelExecOptions parallel;
  parallel.dop = kDop;
  parallel.morsel_size = 8;
  parallel.fold_interval = 1;
  ParallelPipelineExecutor exec(plan->get(),
                                testing::AggressiveAdaptiveOptions(),
                                parallel);
  exec.set_worker_observers(observers);
  auto stats = exec.Execute(nullptr);
  ASSERT_TRUE(stats.ok()) << stats.status();

  std::set<std::string> all_keys;
  size_t emitted_total = 0;
  for (size_t w = 0; w < kDop; ++w) {
    checkers[w]->FinalCheck(exec.worker_stats()[w]);
    for (const std::string& v : checkers[w]->violations()) {
      ADD_FAILURE() << "worker " << w << ": " << v;
    }
    all_keys.insert(checkers[w]->emitted_keys().begin(),
                    checkers[w]->emitted_keys().end());
    emitted_total += checkers[w]->emitted_keys().size();
  }
  EXPECT_EQ(all_keys.size(), emitted_total)
      << "two workers emitted the same RID tuple";
  EXPECT_EQ(stats->rows_out, all_keys.size());
}

}  // namespace
}  // namespace ajr
