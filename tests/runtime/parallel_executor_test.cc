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
//   * the coordinator's morsel ramp starts at c, doubles per unproductive
//     fold up to its cap, and resets at every reorder and driving switch;
//   * WorkerLease degrades dop on a busy pool instead of deadlocking.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "exec/adaptive_coordinator.h"
#include "exec/exec_observer.h"
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

// A one-worker coordinator run of a static plan is the serial run through
// the same get-next loop: the morsels replay the serial cursor's entries in
// order, so rows come out in the same sequence and every work unit (the
// dispenser's scan charges included) matches, at any morsel ramp base.
TEST_F(ParallelExecutorTest, OneWorkerStaticRunIsSerial) {
  DmvQueryGenerator gen(catalog_);
  for (size_t c : {1, 3, 10}) {
    AdaptiveOptions options;
    options.reorder_inners = false;
    options.reorder_driving = false;
    options.check_frequency = c;
    for (int t = 1; t <= kNumFourTableTemplates; ++t) {
      for (size_t v = 0; v < 3; ++v) {
        auto q = gen.Generate(t, v);
        ASSERT_TRUE(q.ok()) << q.status();
        auto plan = Plan(*q);
        ASSERT_TRUE(plan.ok()) << plan.status();

        std::vector<Row> serial_rows;
        ExecStats serial = RunSerial(plan->get(), options, &serial_rows);

        ParallelExecOptions parallel;
        parallel.dop = 1;
        parallel.force_parallel = true;
        std::vector<Row> par_rows;
        ExecStats par = RunParallel(plan->get(), options, parallel, &par_rows);

        EXPECT_EQ(par.parallel_workers, 1u);
        EXPECT_EQ(par_rows, serial_rows) << "c=" << c << " T" << t << " v" << v;
        EXPECT_EQ(par.driving_rows_produced, serial.driving_rows_produced)
            << "c=" << c << " T" << t << " v" << v;
        EXPECT_EQ(par.work_units, serial.work_units)
            << "c=" << c << " T" << t << " v" << v;
      }
    }
  }
}

// Parallel runs decide through the same DecisionHost as serial ones, so
// their event log uses the serial format: one line per order change, each
// naming its decision kind the serial way, and one policy decision per
// check. Forced one-worker runs are deterministic; the default options
// switch driving legs on the golden mix, Strict() also reorders inners.
TEST_F(ParallelExecutorTest, ParallelEventsUseTheSerialFormat) {
  DmvQueryGenerator gen(catalog_, /*seed=*/20070415);
  auto queries = gen.GenerateMix(6);
  ASSERT_TRUE(queries.ok()) << queries.status();
  uint64_t inner_reorders = 0, driving_switches = 0;
  for (const AdaptiveOptions& options : {AdaptiveOptions{}, Strict()}) {
    for (const JoinQuery& q : *queries) {
      auto plan = Plan(q);
      ASSERT_TRUE(plan.ok()) << plan.status();
      ParallelExecOptions parallel;
      parallel.dop = 1;
      parallel.force_parallel = true;
      ExecStats stats = RunParallel(plan->get(), options, parallel, nullptr);
      EXPECT_EQ(stats.parallel_workers, 1u) << q.name;
      EXPECT_EQ(stats.events.size(), stats.order_switches()) << q.name;
      EXPECT_EQ(stats.policy_decisions, stats.inner_checks + stats.driving_checks)
          << q.name;
      for (const std::string& e : stats.events) {
        EXPECT_TRUE(e.starts_with("inner reorder at position ") ||
                    e.starts_with("driving switch after "))
            << q.name << ": " << e;
      }
      inner_reorders += stats.inner_reorders;
      driving_switches += stats.driving_switches;
    }
  }
  EXPECT_GT(inner_reorders, 0u) << "no inner reorder: its format is unchecked";
  EXPECT_GT(driving_switches, 0u) << "no driving switch: its format is unchecked";
}

// dop > 1: the row multiset equals the reference for every template, at
// several dops and morsel sizes (Strict() has no back-off, so morsels stay
// at the ramp base c), with adaptation fully on.
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
        AdaptiveOptions options = Strict();
        options.check_frequency = morsel;
        std::vector<Row> rows;
        ExecStats stats = RunParallel(plan->get(), options, parallel, &rows);
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
  EXPECT_GT(stats->morsels, 1u) << "c-entry morsels must split the scan";
  // One fold per processed morsel, and no extra final fold.
  EXPECT_EQ(stats->monitor_folds, stats->morsels);

  ASSERT_EQ(exec.worker_stats().size(), 4u);
  uint64_t worker_rows = 0;
  uint64_t worker_morsels = 0;
  for (const ExecStats& ws : exec.worker_stats()) {
    worker_rows += ws.rows_out;
    worker_morsels += ws.morsels;
    EXPECT_EQ(ws.monitor_folds, ws.morsels);
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
      AdaptiveOptions options = Strict();
      options.check_frequency = 8;  // frequent barriers: switches can land
      std::vector<Row> rows;
      ExecStats stats = RunParallel(plan->get(), options, parallel, &rows);
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

  auto drain = [&](size_t size) {
    MorselDriver driver(plan->get(), /*record_positions=*/false);
    EXPECT_TRUE(driver.Promote(t0).ok());
    std::vector<Rid> rids;
    ParallelMorsel m;
    while (driver.Fill(&m, size)) {
      EXPECT_LE(m.rids.size(), size);
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

// ---- morsel ramp -----------------------------------------------------------

/// A DrivingSource over an in-memory entry counter that records every
/// Fill budget the coordinator asks for.
class CountingSource : public DrivingSource {
 public:
  explicit CountingSource(size_t total) : total_(total) {}

  Status Promote(size_t table) override {
    current_ = table;
    return Status::OK();
  }
  bool Fill(ParallelMorsel* morsel, size_t max_entries) override {
    budgets.push_back(max_entries);
    morsel->rids.clear();
    morsel->positions.clear();
    while (morsel->rids.size() < max_entries && next_ < total_) {
      morsel->rids.push_back(next_++);
    }
    return !morsel->rids.empty();
  }
  std::optional<ScanPosition> high_water() const override {
    return std::nullopt;
  }
  double total_entries(size_t) const override {
    return static_cast<double>(total_);
  }
  double dispensed_entries(size_t) const override {
    return static_cast<double>(next_);
  }
  bool ever_promoted(size_t table) const override { return table == current_; }
  size_t prefix_col(size_t) const override { return SIZE_MAX; }
  uint64_t scan_work_units() const override { return 0; }

  std::vector<size_t> budgets;

 private:
  size_t total_;
  size_t next_ = 0;
  size_t current_ = SIZE_MAX;
};

/// Drains `source` through a one-worker coordinator, folding an empty
/// delta after every morsel (what ExecuteWorker does, minus the pipeline).
void DrainThroughCoordinator(const PipelinePlan* plan,
                             const AdaptiveOptions& options,
                             CountingSource* source) {
  AdaptiveCoordinator coordinator(plan, options, source);
  ASSERT_TRUE(coordinator.Init().ok());
  ParallelWorkerSync sync;
  ASSERT_TRUE(coordinator.RegisterWorker(&sync));
  WorkerMonitorDeltas empty;
  empty.inner.resize(plan->query.tables.size());
  empty.driving.resize(plan->query.tables.size());
  empty.edges.resize(plan->query.edges.size());
  ParallelMorsel m;
  while (coordinator.AcquireMorsel(&m) ==
         AdaptiveCoordinator::Acquire::kMorsel) {
    coordinator.Fold(empty);
  }
}

AdaptiveOptions StaticOptions() {
  AdaptiveOptions o;
  o.reorder_inners = false;
  o.reorder_driving = false;
  return o;
}

// Static folds can never change the order, so every one counts as
// "changed nothing": the ramp starts at c and doubles per fold up to the
// largest c * 2^k within kMaxMorselEntries, then stays there.
TEST_F(ParallelExecutorTest, StaticRunRampsFromCToTheCap) {
  DmvQueryGenerator gen(catalog_);
  auto q = gen.Generate(1, 0);
  ASSERT_TRUE(q.ok()) << q.status();
  auto plan = Plan(*q);
  ASSERT_TRUE(plan.ok()) << plan.status();

  CountingSource source(5000);
  DrainThroughCoordinator(plan->get(), StaticOptions(), &source);
  const std::vector<size_t> ramp = {10, 20, 40, 80, 160, 320, 640};
  ASSERT_GT(source.budgets.size(), ramp.size() + 2);
  for (size_t i = 0; i < source.budgets.size(); ++i) {
    const size_t expect = i < ramp.size() ? ramp[i] : 640;
    EXPECT_EQ(source.budgets[i], expect) << "fill " << i;
  }

  // A base that divides the ceiling ramps all the way to it.
  AdaptiveOptions c1 = StaticOptions();
  c1.check_frequency = 1;
  CountingSource unit(5000);
  DrainThroughCoordinator(plan->get(), c1, &unit);
  ASSERT_GE(unit.budgets.size(), 12u);
  EXPECT_EQ(unit.budgets[0], 1u);
  EXPECT_EQ(unit.budgets[10], AdaptiveCoordinator::kMaxMorselEntries);
  EXPECT_EQ(unit.budgets[11], AdaptiveCoordinator::kMaxMorselEntries);
}

// With check_backoff off the ramp mirrors CheckBackoff and stays at c.
TEST_F(ParallelExecutorTest, RampStaysAtCWithoutBackoff) {
  DmvQueryGenerator gen(catalog_);
  auto q = gen.Generate(1, 0);
  ASSERT_TRUE(q.ok()) << q.status();
  auto plan = Plan(*q);
  ASSERT_TRUE(plan.ok()) << plan.status();

  AdaptiveOptions options = StaticOptions();
  options.check_frequency = 7;
  options.check_backoff = false;
  CountingSource source(500);
  DrainThroughCoordinator(plan->get(), options, &source);
  ASSERT_GT(source.budgets.size(), 10u);
  for (size_t b : source.budgets) EXPECT_EQ(b, 7u);
}

/// Forwards to a MorselDriver and records every Fill budget.
class RecordingSource : public DrivingSource {
 public:
  explicit RecordingSource(const PipelinePlan* plan)
      : driver_(plan, /*record_positions=*/true) {}

  Status Promote(size_t table) override { return driver_.Promote(table); }
  bool Fill(ParallelMorsel* morsel, size_t max_entries) override {
    budgets.push_back(max_entries);
    return driver_.Fill(morsel, max_entries);
  }
  std::optional<ScanPosition> high_water() const override {
    return driver_.high_water();
  }
  double total_entries(size_t t) const override {
    return driver_.total_entries(t);
  }
  double dispensed_entries(size_t t) const override {
    return driver_.dispensed_entries(t);
  }
  bool ever_promoted(size_t t) const override { return driver_.ever_promoted(t); }
  size_t prefix_col(size_t t) const override { return driver_.prefix_col(t); }
  uint64_t scan_work_units() const override { return driver_.scan_work_units(); }

  static constexpr size_t kBase = 10;
  std::vector<size_t> budgets;

 private:
  MorselDriver driver_;
};

/// Records, for every adaptation a worker adopts, the index of the morsel
/// it adopted it in (adoption happens at the morsel's first driving row).
class AdaptationLog : public ExecObserver {
 public:
  explicit AdaptationLog(const RecordingSource* source) : source_(source) {}
  void OnAdaptation(const AdaptationEvent& event) override {
    fills.push_back(source_->budgets.size() - 1);
    switches += event.kind == AdaptationEvent::Kind::kDrivingSwitch ? 1 : 0;
  }
  std::vector<size_t> fills;
  uint64_t switches = 0;

 private:
  const RecordingSource* source_;
};

// Adaptive one-worker runs: the first morsel is c entries; each later one
// either doubles the previous (up to the cap) or resets to c; and the
// morsel after every inner reorder and every driving switch is c entries.
TEST_F(ParallelExecutorTest, RampResetsToCAfterReordersAndSwitches) {
  constexpr size_t kC = RecordingSource::kBase;
  AdaptiveOptions options = Strict();
  options.check_frequency = kC;
  options.check_backoff = true;
  const size_t cap = 640;  // largest 10 * 2^k <= kMaxMorselEntries

  DmvQueryGenerator gen(catalog_);
  uint64_t inner_reorders = 0, switches = 0, doublings = 0;
  for (int t = 1; t <= kNumFourTableTemplates; ++t) {
    for (size_t v = 0; v < 4; ++v) {
      auto q = gen.Generate(t, v);
      ASSERT_TRUE(q.ok()) << q.status();
      auto plan = Plan(*q);
      ASSERT_TRUE(plan.ok()) << plan.status();

      RecordingSource source(plan->get());
      AdaptiveCoordinator coordinator(plan->get(), options, &source);
      ASSERT_TRUE(coordinator.Init().ok());
      AdaptationLog log(&source);
      PipelineExecutor worker(plan->get(), options);
      worker.set_observer(&log);
      auto stats = worker.ExecuteWorker(&coordinator, nullptr);
      ASSERT_TRUE(stats.ok()) << stats.status();
      ExecStats merged = *stats;
      coordinator.FinishStats(&merged);

      const std::vector<size_t>& b = source.budgets;
      ASSERT_FALSE(b.empty());
      EXPECT_EQ(b[0], kC) << "T" << t << " v" << v;
      for (size_t i = 1; i < b.size(); ++i) {
        const size_t doubled = std::min(2 * b[i - 1], cap);
        EXPECT_TRUE(b[i] == doubled || b[i] == kC)
            << "T" << t << " v" << v << " fill " << i << ": " << b[i - 1]
            << " -> " << b[i];
        doublings += b[i] == doubled && doubled != kC ? 1 : 0;
      }
      for (size_t fill : log.fills) {
        EXPECT_EQ(b[fill], kC) << "T" << t << " v" << v
                               << ": adaptation adopted in a grown morsel";
      }
      // A change the scan ends before any worker adopts is not logged.
      EXPECT_LE(log.fills.size(),
                merged.inner_reorders + merged.driving_switches);
      switches += log.switches;
      inner_reorders += log.fills.size() - log.switches;
    }
  }
  EXPECT_GT(inner_reorders, 0u) << "no inner reorder: reset is untested";
  EXPECT_GT(switches, 0u) << "no driving switch: reset is untested";
  EXPECT_GT(doublings, 0u) << "the ramp never grew";
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
  AdaptiveOptions options = testing::AggressiveAdaptiveOptions();
  options.check_frequency = 8;
  ParallelPipelineExecutor exec(plan->get(), options, parallel);
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
