// Morsel-parallel executor tests (ctest label: stress; run under TSan).
//
// The contract under test:
//   * dop <= 1 is the untouched serial path — bit-identical rows, work
//     units, stats, and event log to a plain PipelineExecutor run;
//   * dop > 1 preserves the row MULTISET (interleaving is free), and the
//     merged stats account for every worker's output;
//   * adaptation still happens: the shared coordinator's merged-statistics
//     checks produce driving switches on the paper's misestimated
//     templates, and switched runs stay exact;
//   * one DrivingScans dispenses each driving scan exactly once, pulled one
//     entry at a time (serial) or in morsels of any size (parallel), with
//     the same RIDs, positions, work units and demotions either way;
//   * the coordinator's morsel ramp starts at c, doubles per unproductive
//     fold up to its cap, and resets at every reorder and driving switch;
//   * WorkerLease degrades dop on a busy pool instead of deadlocking.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <functional>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "exec/adaptive_coordinator.h"
#include "exec/exec_observer.h"
#include "exec/pipeline_executor.h"
#include "exec/reference_executor.h"
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

// ---- driving scans ---------------------------------------------------------

/// One way of pulling a driving scan and what it yielded.
struct ScanPulls {
  std::vector<Rid> rids;
  std::vector<ScanPosition> positions;
  uint64_t work_units = 0;
  Demotion mid_scan;  ///< demoted after the first `demote_after` entries
  Demotion resumed;   ///< demoted again right after a re-promotion
};

/// Pulls query table `table`'s whole driving scan: one entry at a time with
/// Next when `morsel` is 0, else in Fills of up to `morsel` entries. After
/// `demote_after` entries it demotes the table, drives `other` for one
/// entry, re-promotes the table, demotes it again (that promotion dispensed
/// nothing) and resumes the scan to its end.
ScanPulls PullScan(const PipelinePlan* plan, size_t table, size_t other,
                   size_t morsel, size_t demote_after) {
  DrivingScans scans(plan, /*record_positions=*/true);
  WorkCounter wc;
  ScanPulls out;
  // Pulls up to `limit` more entries of the promoted scan; false at its end.
  auto pull = [&](size_t limit) {
    for (size_t got = 0; got < limit;) {
      if (morsel == 0) {
        Rid rid;
        if (!scans.Next(&wc, &rid)) return false;
        out.rids.push_back(rid);
        out.positions.push_back(scans.position());
        ++got;
        continue;
      }
      ParallelMorsel m;
      if (!scans.Fill(&m, std::min(morsel, limit - got), &wc)) return false;
      EXPECT_EQ(m.positions.size(), m.rids.size());
      out.rids.insert(out.rids.end(), m.rids.begin(), m.rids.end());
      out.positions.insert(out.positions.end(), m.positions.begin(),
                           m.positions.end());
      got += m.rids.size();
    }
    return true;
  };
  scans.Promote(table);
  EXPECT_TRUE(pull(demote_after));
  scans.Demote(&out.mid_scan);
  scans.Promote(other);
  Rid unused;
  EXPECT_TRUE(scans.Next(&wc, &unused));
  scans.Promote(table);
  out.resumed = out.mid_scan;
  scans.Demote(&out.resumed);
  while (pull(SIZE_MAX)) {
  }
  EXPECT_EQ(scans.dispensed(table), static_cast<double>(out.rids.size()));
  out.work_units = wc.total();
  return out;
}

void ExpectSamePosition(const ScanPosition& a, const ScanPosition& b,
                        const std::string& where) {
  EXPECT_EQ(a.order, b.order) << where;
  EXPECT_EQ(a.key_type, b.key_type) << where;
  EXPECT_EQ(a.key_enc, b.key_enc) << where;
  EXPECT_EQ(a.rid, b.rid) << where;
}

void ExpectSameDemotion(const Demotion& a, const Demotion& b,
                        const std::string& where) {
  EXPECT_EQ(a.demoted, b.demoted) << where;
  EXPECT_EQ(a.seq, b.seq) << where;
  ExpectSamePosition(a.prefix, b.prefix, where);
  EXPECT_EQ(a.prefix_col, b.prefix_col) << where;
  EXPECT_EQ(a.remaining_entries, b.remaining_entries) << where;
  EXPECT_EQ(a.remaining_fraction, b.remaining_fraction) << where;
}

// One DrivingScans serves both hosts: the serial pull (Next, one entry at a
// time) and the coordinator's (Fill, any morsel size) dispense the same
// RIDs at the same positions for the same work, exactly once each, and a
// mid-scan demotion records the same Demotion either way. Covers an
// index-scan leg and a table-scan leg.
TEST_F(ParallelExecutorTest, DrivingScansDispenseTheSameByNextAndFill) {
  DmvQueryGenerator gen(catalog_);
  auto q = gen.Generate(1, 0);
  ASSERT_TRUE(q.ok()) << q.status();
  auto plan = Plan(*q);
  ASSERT_TRUE(plan.ok()) << plan.status();
  size_t index_leg = SIZE_MAX, table_leg = SIZE_MAX;
  for (size_t t = 0; t < (*plan)->access.size(); ++t) {
    size_t& leg = (*plan)->access[t].driving.index != nullptr ? index_leg : table_leg;
    if (leg == SIZE_MAX) leg = t;
  }
  ASSERT_NE(index_leg, SIZE_MAX);
  ASSERT_NE(table_leg, SIZE_MAX);

  for (size_t table : {index_leg, table_leg}) {
    const size_t other = table == index_leg ? table_leg : index_leg;
    constexpr size_t kDemoteAfter = 7;
    const ScanPulls serial = PullScan(plan->get(), table, other, 0, kDemoteAfter);
    ASSERT_GT(serial.rids.size(), kDemoteAfter);
    std::set<Rid> unique(serial.rids.begin(), serial.rids.end());
    EXPECT_EQ(unique.size(), serial.rids.size()) << "dispenser duplicated an entry";

    // The mid-scan demotion sits at the last entry dispensed and leaves the
    // rest; the resumed promotion dispensed nothing, so it keeps the prefix.
    DrivingScans scans(plan->get(), /*record_positions=*/false);
    scans.Promote(table);
    EXPECT_EQ(scans.total_entries(table), static_cast<double>(serial.rids.size()));
    EXPECT_TRUE(serial.mid_scan.demoted);
    EXPECT_EQ(serial.mid_scan.seq, 1u);
    ExpectSamePosition(serial.mid_scan.prefix, serial.positions[kDemoteAfter - 1],
                       "mid-scan prefix");
    EXPECT_EQ(serial.mid_scan.remaining_entries,
              static_cast<double>(serial.rids.size() - kDemoteAfter));
    EXPECT_EQ(serial.resumed.seq, 1u);
    ExpectSamePosition(serial.resumed.prefix, serial.mid_scan.prefix, "resumed prefix");

    for (size_t morsel : {size_t{1}, size_t{3}, size_t{1} << 20}) {
      const std::string where =
          "table " + std::to_string(table) + " morsel " + std::to_string(morsel);
      const ScanPulls filled = PullScan(plan->get(), table, other, morsel, kDemoteAfter);
      EXPECT_EQ(filled.rids, serial.rids) << where;
      ASSERT_EQ(filled.positions.size(), serial.positions.size()) << where;
      for (size_t i = 0; i < serial.positions.size(); ++i) {
        ExpectSamePosition(filled.positions[i], serial.positions[i], where);
      }
      EXPECT_EQ(filled.work_units, serial.work_units) << where;
      ExpectSameDemotion(filled.mid_scan, serial.mid_scan, where + " mid-scan");
      ExpectSameDemotion(filled.resumed, serial.resumed, where + " resumed");
    }
  }
}

// ---- morsel ramp -----------------------------------------------------------

/// owner JOIN car with no local predicate: whichever leg drives scans all
/// its rows (3000 owners or about 3350 cars in this fixture), long enough
/// for the ramp to reach its cap and stay there.
JoinQuery OwnerCar() {
  JoinQuery q;
  q.name = "owner_car";
  q.tables = {{"o", "owner"}, {"c", "car"}};
  q.edges = {{1, "ownerid", 0, "id", 0}};
  q.local_predicates.assign(2, nullptr);
  q.output = {{0, "id"}, {1, "id"}};
  return q;
}

/// Empty deltas for every table and edge of `plan`: a worker's fold of a
/// morsel that recorded nothing.
WorkerMonitorDeltas NoEvidence(const PipelinePlan* plan) {
  WorkerMonitorDeltas deltas;
  deltas.inner.resize(plan->query.tables.size());
  deltas.driving.resize(plan->query.tables.size());
  deltas.edges.resize(plan->query.edges.size());
  return deltas;
}

/// Drains a one-worker coordinator over `plan`'s driving scan, folding an
/// empty delta after every morsel (what ExecuteWorker does, minus the
/// pipeline), and returns the acquired morsels' sizes.
std::vector<size_t> DrainThroughCoordinator(const PipelinePlan* plan,
                                            const AdaptiveOptions& options) {
  AdaptiveCoordinator coordinator(plan, options, /*record_positions=*/false);
  ParallelWorkerSync sync;
  EXPECT_TRUE(coordinator.RegisterWorker(&sync));
  const WorkerMonitorDeltas empty = NoEvidence(plan);
  std::vector<size_t> sizes;
  ParallelMorsel m;
  while (coordinator.AcquireMorsel(&m) ==
         AdaptiveCoordinator::Acquire::kMorsel) {
    sizes.push_back(m.rids.size());
    coordinator.Fold(empty);
  }
  return sizes;
}

/// Every morsel but the last holds exactly its budget; the last, where the
/// scan ran out, at most that.
void ExpectMorselSizes(const std::vector<size_t>& sizes,
                       const std::function<size_t(size_t)>& budget) {
  for (size_t i = 0; i < sizes.size(); ++i) {
    if (i + 1 < sizes.size()) {
      EXPECT_EQ(sizes[i], budget(i)) << "morsel " << i;
    } else {
      EXPECT_LE(sizes[i], budget(i)) << "last morsel " << i;
    }
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
  auto plan = Plan(OwnerCar());
  ASSERT_TRUE(plan.ok()) << plan.status();

  const std::vector<size_t> ramp = {10, 20, 40, 80, 160, 320, 640};
  const std::vector<size_t> sizes = DrainThroughCoordinator(plan->get(), StaticOptions());
  ASSERT_GT(sizes.size(), ramp.size() + 2);
  ExpectMorselSizes(sizes, [&](size_t i) { return i < ramp.size() ? ramp[i] : 640; });

  // A base that divides the ceiling ramps all the way to it.
  AdaptiveOptions c1 = StaticOptions();
  c1.check_frequency = 1;
  const std::vector<size_t> unit = DrainThroughCoordinator(plan->get(), c1);
  ASSERT_GE(unit.size(), 12u);
  EXPECT_EQ(unit[0], 1u);
  EXPECT_EQ(unit[10], AdaptiveCoordinator::kMaxMorselEntries);
  ExpectMorselSizes(unit, [](size_t i) {
    return std::min<size_t>(size_t{1} << i, AdaptiveCoordinator::kMaxMorselEntries);
  });
}

// With check_backoff off the ramp mirrors CheckBackoff and stays at c.
TEST_F(ParallelExecutorTest, RampStaysAtCWithoutBackoff) {
  auto plan = Plan(OwnerCar());
  ASSERT_TRUE(plan.ok()) << plan.status();

  AdaptiveOptions options = StaticOptions();
  options.check_frequency = 7;
  options.check_backoff = false;
  const std::vector<size_t> sizes = DrainThroughCoordinator(plan->get(), options);
  ASSERT_GT(sizes.size(), 10u);
  ExpectMorselSizes(sizes, [](size_t) { return 7; });
}

/// Records the morsel budget every adaptation a worker adopts was adopted
/// under. A one-worker run adopts right after AcquireMorsel, before any
/// fold, so the coordinator's current budget is the adopting morsel's.
class AdaptationLog : public ExecObserver {
 public:
  explicit AdaptationLog(const AdaptiveCoordinator* coordinator)
      : coordinator_(coordinator) {}
  void OnAdaptation(const AdaptationEvent& event) override {
    budgets.push_back(coordinator_->morsel_budget());
    switches += event.kind == AdaptationEvent::Kind::kDrivingSwitch ? 1 : 0;
  }
  std::vector<uint64_t> budgets;
  uint64_t switches = 0;

 private:
  const AdaptiveCoordinator* coordinator_;
};

// Adaptive one-worker runs: every inner reorder and every driving switch is
// adopted in a c-entry morsel, and between them the ramp grows. (The
// doubling and reset schedule itself is CheckBackoffTest's.)
TEST_F(ParallelExecutorTest, RampResetsToCAfterReordersAndSwitches) {
  constexpr size_t kC = 10;
  AdaptiveOptions options = Strict();
  options.check_frequency = kC;
  options.check_backoff = true;

  DmvQueryGenerator gen(catalog_);
  uint64_t inner_reorders = 0, switches = 0, grown = 0;
  for (int t = 1; t <= kNumFourTableTemplates; ++t) {
    for (size_t v = 0; v < 4; ++v) {
      auto q = gen.Generate(t, v);
      ASSERT_TRUE(q.ok()) << q.status();
      auto plan = Plan(*q);
      ASSERT_TRUE(plan.ok()) << plan.status();

      // The observed worker reads positions for OnDrivingRow.
      AdaptiveCoordinator coordinator(plan->get(), options,
                                      /*record_positions=*/true);
      AdaptationLog log(&coordinator);
      PipelineExecutor worker(plan->get(), options);
      worker.set_observer(&log);
      auto stats = worker.ExecuteWorker(&coordinator, nullptr);
      ASSERT_TRUE(stats.ok()) << stats.status();
      ExecStats merged = *stats;
      coordinator.FinishStats(&merged);

      ASSERT_GT(stats->morsels, 0u);
      for (uint64_t budget : log.budgets) {
        EXPECT_EQ(budget, kC) << "T" << t << " v" << v
                              << ": adaptation adopted in a grown morsel";
      }
      // A change the scan ends before any worker adopts is not logged.
      EXPECT_LE(log.budgets.size(),
                merged.inner_reorders + merged.driving_switches);
      // Every driving row came from some morsel; more rows than c per
      // morsel means some morsel was larger than c.
      grown += stats->driving_rows_produced > stats->morsels * kC ? 1 : 0;
      switches += log.switches;
      inner_reorders += log.budgets.size() - log.switches;
    }
  }
  EXPECT_GT(inner_reorders, 0u) << "no inner reorder: reset is untested";
  EXPECT_GT(switches, 0u) << "no driving switch: reset is untested";
  EXPECT_GT(grown, 0u) << "the ramp never grew";
}

// A fold that lands while a driving switch drains cannot change anything,
// so it grows the ramp; installing the switch must reset it, so the new
// driving leg's first morsels hold c entries. Driven directly: two
// registered workers, one fold that decides the switch, one that lands in
// the drain, then both arrive at the barrier.
TEST_F(ParallelExecutorTest, SwitchInstallResetsARampGrownDuringTheDrain) {
  auto plan = Plan(OwnerCar());
  ASSERT_TRUE(plan.ok()) << plan.status();
  const PipelinePlan* p = plan->get();
  const size_t driving = p->initial_order[0];
  const size_t inner = p->initial_order[1];
  AdaptiveOptions options = Strict();
  options.check_backoff = true;
  const size_t c = options.check_frequency;

  AdaptiveCoordinator coordinator(p, options, /*record_positions=*/false);
  ParallelWorkerSync sync_a, sync_b;
  ASSERT_TRUE(coordinator.RegisterWorker(&sync_a));
  ASSERT_TRUE(coordinator.RegisterWorker(&sync_b));
  ParallelMorsel morsel_a, morsel_b;
  ASSERT_EQ(coordinator.AcquireMorsel(&morsel_a), AdaptiveCoordinator::Acquire::kMorsel);
  ASSERT_EQ(coordinator.AcquireMorsel(&morsel_b), AdaptiveCoordinator::Acquire::kMorsel);

  // Worker A's morsel: every driving entry passed, one probe edge pair per
  // probe, and the inner leg kept almost none of its matches. Driving from
  // the inner leg is far cheaper, so the check decides a switch.
  WorkerMonitorDeltas evidence = NoEvidence(p);
  LegMonitor inner_monitor(options.history_window);
  DrivingMonitor driving_monitor(options.history_window);
  EdgeMonitor edge_monitor(options.history_window);
  for (size_t i = 0; i < morsel_a.rids.size(); ++i) {
    driving_monitor.RecordScannedEntry(true);
    inner_monitor.RecordIncomingRow(/*after_edges=*/1, /*out=*/0, /*work=*/4);
    edge_monitor.Record(static_cast<double>(p->entries[inner]->StatsCardinality()), 1);
  }
  evidence.inner[inner] = inner_monitor.TakeDelta();
  evidence.driving[driving] = driving_monitor.TakeDelta();
  evidence.edges[0] = edge_monitor.TakeDelta();
  coordinator.Fold(evidence);
  EXPECT_EQ(coordinator.morsel_budget(), c);

  // Worker B's fold lands during the drain and doubles the ramp.
  coordinator.Fold(NoEvidence(p));
  EXPECT_EQ(coordinator.morsel_budget(), 2 * c);

  // Both arrive at the barrier; whichever is last installs the switch.
  AdaptiveCoordinator::Acquire acquired_a = AdaptiveCoordinator::Acquire::kAborted;
  std::thread worker_a([&] { acquired_a = coordinator.AcquireMorsel(&morsel_a); });
  const AdaptiveCoordinator::Acquire acquired_b = coordinator.AcquireMorsel(&morsel_b);
  worker_a.join();
  ASSERT_EQ(acquired_a, AdaptiveCoordinator::Acquire::kMorsel);
  ASSERT_EQ(acquired_b, AdaptiveCoordinator::Acquire::kMorsel);
  EXPECT_EQ(morsel_a.rids.size(), c);
  EXPECT_EQ(morsel_b.rids.size(), c);
  EXPECT_EQ(coordinator.morsel_budget(), c);

  ExecStats stats;
  coordinator.FinishStats(&stats);
  EXPECT_EQ(stats.driving_switches, 1u);
  EXPECT_EQ(stats.final_order[0], inner);
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
