// AdaptiveCoordinator: shared run-time reoptimization state for morsel-
// parallel execution.
//
// In parallel mode the driving leg's scan is split into morsels handed out
// by the coordinator's DrivingScans, the dispenser a serial run pulls one
// entry at a time, and `dop` worker-local pipeline clones run
// concurrently. Each worker keeps its own inner legs and sliding-window
// monitors; after every morsel it folds its monitor *deltas* into the
// coordinator, which merges them and checks through its DecisionHost
// (adaptive/decision_host.h) — the one decision host serial runs use, fed
// with fleet-wide evidence. The coordinator keeps the parallel mechanics.
//
// Morsel ramp: the first morsel holds c (check_frequency) driving entries,
// so the fleet decides after about as many rows as the serial executor
// does. Every fold that changes nothing — including folds that cannot
// change anything (static options, a one-table order, a draining
// coordinator) — doubles the next morsel, up to the largest c * 2^k that
// fits kMaxMorselEntries; an inner reorder or a driving switch resets it
// to c. This is CheckBackoff applied to morsel size, so with
// check_backoff off the morsels stay at c entries. Once the order settles
// the morsels are large and folds are rare.
//
// Unlike the serial driving check, which keeps backing off through a
// switch, the ramp resets at a switch decision and again at its install,
// so a promoted leg starts at c-entry morsels. Dropping the reset cut
// dop-2 work on the six-table mix but left dop 4's high-work mode (about
// 1.3x the serial work, in a varying share of runs) in place, so the reset
// stays until that mode is understood.
//
// Decisions are published as epoch-tagged snapshots. A worker's driving-
// entry source polls the epoch (one atomic load) before it hands out each
// driving entry — a full-pipeline depleted state, the paper's moment of
// symmetry (Sec 4.1) — and adopts the new order and demotions there, so
// every reorder still happens only at a depleted state.
//
// A driving switch needs more care than an inner reorder: no in-flight
// morsel of the old driving leg may be re-emitted under the new one. The
// host counts and logs a switch when it decides it; the coordinator then
// drains the dispenser (state kDrainingSwitch): no new morsels are handed
// out, every worker parks at a barrier inside AcquireMorsel, and the last
// arrival installs the switch — it demotes the old leg with a positional
// predicate at the dispenser's scan position (the position of the last
// entry handed out, which every processed entry is at or before), promotes
// the new leg's scan, bumps the epoch, and releases the barrier. Workers
// wake, adopt, and pull morsels from the new driving leg.
// Because the high-water mark covers every dispensed entry, no emitted
// tuple can be regenerated, and nothing behind it is lost (Sec 4.2's
// duplicate prevention, lifted to the fleet).
//
// Thread safety: everything behind one mutex except the published epoch
// (atomic, read lock-free on the worker hot path). The DrivingScans and
// the DecisionHost are only ever called under the coordinator mutex, so
// they need no locking of their own.

#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "adaptive/controller.h"
#include "adaptive/decision_host.h"
#include "adaptive/monitor.h"
#include "common/status.h"
#include "common/work_counter.h"
#include "optimize/planner.h"
#include "storage/cursors.h"
#include "storage/scan_position.h"

namespace ajr {

struct ExecStats;

// ---- Driving-leg state shared by serial and parallel runs ------------------
//
// A query's driving scans live in one DrivingScans. The serial
// PipelineExecutor pulls it one entry at a time (Next), the coordinator in
// morsels (Fill); both demote through it into one Demotion record per query
// table (adaptive/decision_host.h), so the prefix and the count behind
// EntriesLeft (adaptive/controller.h) are the same in either run.

/// One batch of driving-scan entries handed to a worker. `positions` is
/// parallel to `rids` and filled only when the scans record positions
/// (observer-instrumented runs).
struct ParallelMorsel {
  std::vector<Rid> rids;
  std::vector<ScanPosition> positions;
};

/// The query's driving scans: one forward-only cursor per query table,
/// opened at the table's first promotion (indexed legs scan in (key, RID)
/// order over the plan's ranges, others in RID order) and kept across
/// demotions, so a re-promotion continues past every entry dispensed before
/// (Sec 4.2's kept cursor). One table is promoted at a time. No locking of
/// its own: the coordinator calls it under its mutex.
class DrivingScans {
 public:
  /// `plan` must outlive the scans. `record_positions` makes Fill record
  /// each entry's scan position alongside its RID (one ScanPosition per
  /// entry, so only observer-instrumented runs ask for it).
  DrivingScans(const PipelinePlan* plan, bool record_positions);

  /// Makes `table` the dispensing scan: opens it on the first promotion,
  /// continues its kept cursor after that.
  void Promote(size_t table);

  /// The promoted scan's next entry, its work charged to `wc`; false once
  /// the scan is exhausted. The scan is pulled past its last entry once.
  bool Next(WorkCounter* wc, Rid* rid);

  /// Fills `morsel` with up to `max_entries` Next entries; false when the
  /// scan is exhausted (morsels are never empty).
  bool Fill(ParallelMorsel* morsel, size_t max_entries, WorkCounter* wc);

  /// Demotes the promoted table into `demotion`: the prefix is the last
  /// entry dispensed since its promotion (none when it dispensed nothing),
  /// the consumed count every entry it ever dispensed.
  void Demote(Demotion* demotion) const;

  /// Scan position of the last entry dispensed; valid after Next or Fill
  /// dispensed one.
  ScanPosition position() const { return legs_[current_].cursor->CurrentPosition(); }

  bool ever_promoted(size_t table) const { return legs_[table].cursor != nullptr; }
  /// Entries the table's full scan covers (0 before its first promotion).
  double total_entries(size_t table) const { return legs_[table].total_entries; }
  /// Entries dispensed from the table, over all its promotions.
  double dispensed(size_t table) const {
    return static_cast<double>(legs_[table].dispensed);
  }

 private:
  struct Leg {
    std::unique_ptr<ScanCursor> cursor;  ///< null until the first promotion
    double total_entries = 0;
    /// Column index of the scan-order key (SIZE_MAX = RID order).
    size_t prefix_col = SIZE_MAX;
    uint64_t dispensed = 0;
    bool exhausted = false;  ///< the cursor has run past its last entry
  };

  /// Opens query table `table`'s scan from its start.
  void OpenDrivingScan(size_t table);

  const PipelinePlan* plan_;
  bool record_positions_;
  std::vector<Leg> legs_;  ///< per query table
  size_t current_ = SIZE_MAX;
  /// Entries dispensed since the current promotion.
  uint64_t dispensed_this_promotion_ = 0;
};

/// Epoch-tagged decision snapshot a worker adopts at a depleted state.
struct ParallelWorkerSync {
  uint64_t epoch = 0;
  std::vector<size_t> order;
  std::vector<Demotion> demotions;  ///< per query table
};

/// One worker's monitor deltas since its previous fold (see
/// LegMonitor::TakeDelta).
struct WorkerMonitorDeltas {
  std::vector<LegMonitor::Delta> inner;       ///< per query table
  std::vector<DrivingMonitor::Delta> driving; ///< per query table
  std::vector<EdgeMonitor::Delta> edges;      ///< per query edge
};

class AdaptiveCoordinator {
 public:
  /// Morsel ramp ceiling (driving entries per morsel).
  static constexpr size_t kMaxMorselEntries = 1024;

  /// `plan` must outlive the coordinator. Promotes the plan's initial
  /// driving leg; `record_positions` is the DrivingScans option.
  AdaptiveCoordinator(const PipelinePlan* plan, const AdaptiveOptions& options,
                      bool record_positions);
  ~AdaptiveCoordinator();

  /// Registers a worker into the barrier group and snapshots the current
  /// decision state. False when execution already finished or aborted (the
  /// worker should return immediately).
  bool RegisterWorker(ParallelWorkerSync* sync);

  enum class Acquire {
    kMorsel,    ///< `morsel` was filled; process it
    kFinished,  ///< the final driving scan is exhausted; stop cleanly
    kAborted,   ///< another worker aborted; stop with abort_status()
  };

  /// Hands out the next morsel, parking at the drain barrier when a driving
  /// switch is pending (the last arrival installs it) or the scan is
  /// exhausted (the last arrival finishes the run). Blocks only while other
  /// workers finish their in-flight morsels.
  Acquire AcquireMorsel(ParallelMorsel* morsel);

  /// The published decision epoch; workers compare against their adopted
  /// epoch between driving rows. Lock-free.
  uint64_t published_epoch() const {
    return epoch_.load(std::memory_order_acquire);
  }

  /// Snapshots the current decision state for adoption.
  void GetSync(ParallelWorkerSync* sync) const;

  /// The morsel ramp's current entry budget: the size the next morsel is
  /// filled up to.
  uint64_t morsel_budget() const;

  /// Merges one worker's monitor deltas (one fold per processed morsel)
  /// and, while dispensing, has the DecisionHost check over the merged
  /// statistics. An inner reorder publishes a new epoch immediately; a
  /// driving switch moves the coordinator into the drain state (installed
  /// at the barrier). Either resets the morsel ramp; any other fold
  /// doubles it.
  void Fold(const WorkerMonitorDeltas& deltas);

  /// Aborts execution (first status wins); wakes every parked worker. A
  /// no-op once the run finished cleanly.
  void Abort(Status status);

  bool aborted() const;
  Status abort_status() const;

  /// Folds the coordinator-owned totals into the merged stats: the
  /// DecisionHost's counts and event log, the final order, and the driving
  /// scans' work units.
  void FinishStats(ExecStats* stats) const;

 private:
  enum class State {
    kRunning,         ///< dispensing morsels
    kDrainingSwitch,  ///< switch decided; waiting for in-flight morsels
    kDrainingEnd,     ///< scan exhausted; waiting for in-flight morsels
    kDone,            ///< terminal: clean completion
    kAbort,           ///< terminal: cancelled or failed
  };

  /// Runs the host's checks over the merged monitors; true when they
  /// reordered or decided a switch.
  bool RunChecksLocked();
  void InstallSwitchLocked();
  void AbortLocked(Status status);

  DrivingScans scans_;
  /// Work units charged by the driving scans.
  WorkCounter scan_wc_;
  /// The run's one decision host, consulted only inside RunChecksLocked
  /// (under mu_). Workers never see it.
  DecisionHost decider_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  State state_ = State::kRunning;
  size_t registered_ = 0;
  size_t waiting_ = 0;
  uint64_t generation_ = 0;  ///< barrier generation
  std::atomic<uint64_t> epoch_{0};

  std::vector<size_t> order_;
  std::vector<Demotion> demotions_;
  /// The decided driving switch's order, installed at the drain barrier.
  std::vector<size_t> pending_switch_;

  // Merged monitors (coordinator side of the fold).
  std::vector<LegMonitor> inner_;
  std::vector<DrivingMonitor> driving_;
  std::vector<EdgeMonitor> edges_;

  /// The morsel ramp: interval() is the next morsel's entry budget.
  CheckBackoff ramp_;
  Status abort_status_;
};

}  // namespace ajr
