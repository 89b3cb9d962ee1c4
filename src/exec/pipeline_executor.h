// PipelineExecutor: pipelined indexed nested-loop join execution with
// adaptive join reordering (Sec 3.1, 4).
//
// The executor runs one PipelinePlan as a single get-next loop over a stack
// of legs. The loop's structure makes the paper's depleted states explicit:
// the only moment leg i pulls a new row from leg i-1 is when leg i's match
// buffer for the current incoming row is exhausted — at that moment the
// whole segment i..k is depleted and may be reordered (Sec 4.1). Driving
// checks fire between driving rows, when the entire pipeline is depleted
// (Sec 4.2).
//
// Duplicate prevention is by construction (Sec 4.2): a demoted driving leg
// carries a positional predicate on its scan order — "key > k* OR (key = k*
// AND rid > r*)" for an index scan, "rid > r*" for a table scan — and its
// cursor is kept so a re-promotion resumes the original scan.

#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "adaptive/controller.h"
#include "adaptive/monitor.h"
#include "common/cancellation.h"
#include "common/metrics.h"
#include "common/status.h"
#include "common/work_counter.h"
#include "expr/evaluator.h"
#include "optimize/planner.h"
#include "storage/cursors.h"

namespace ajr {

class AdaptationPolicy;
class AdaptiveCoordinator;
class ExecObserver;
struct FaultInjection;
struct ParallelWorkerSync;

/// Counters reported by one execution.
struct ExecStats {
  uint64_t rows_out = 0;
  uint64_t work_units = 0;
  uint64_t driving_rows_produced = 0;
  uint64_t inner_checks = 0;
  uint64_t inner_reorders = 0;
  uint64_t driving_checks = 0;
  uint64_t driving_switches = 0;
  /// Always 0 (there is no probe batching or per-leg memo); perfbench reads
  /// these five.
  uint64_t probe_cache_hits = 0;
  uint64_t probe_cache_misses = 0;
  uint64_t probe_batches = 0;
  uint64_t probe_batch_keys = 0;
  uint64_t probe_descents_saved = 0;
  /// Shared-scan observability (runtime/shared_scan.h; all zero when scan
  /// sharing is off), read off the morsel dispenser by the orchestrator
  /// after the run. scan_morsels_* count grains (c-entry units of a pass).
  uint64_t shared_scan_attaches = 0;
  uint64_t shared_scan_passes_saved = 0;
  uint64_t scan_morsels_produced = 0;
  uint64_t scan_morsels_consumed = 0;
  /// Morsel-parallel observability (all zero in serial runs): workers that
  /// processed at least one morsel, morsels processed, and monitor folds
  /// into the shared AdaptiveCoordinator (one per morsel).
  uint64_t parallel_workers = 0;
  uint64_t morsels = 0;
  uint64_t monitor_folds = 0;
  /// AdaptationPolicy Decide() calls (adaptive/policy.h). Owned by the
  /// decision host — the serial executor or the parallel coordinator — so
  /// workers report 0.
  uint64_t policy_decisions = 0;
  /// Total join-order changes (inner reorders + driving switches) — the
  /// quantity Fig 10 plots against the history window size.
  uint64_t order_switches() const { return inner_reorders + driving_switches; }
  std::vector<size_t> initial_order;
  std::vector<size_t> final_order;
  double wall_seconds = 0;
  /// Human-readable adaptation event log (one line per reorder/switch):
  /// populated only when events occur, so it costs nothing on the hot path.
  std::vector<std::string> events;

  /// Accumulates a parallel worker's additive counters into this object.
  /// Orders, events, check/reorder counts, and wall time are owned by the
  /// coordinator/orchestrator and are NOT merged here.
  void MergeFrom(const ExecStats& worker);
};

/// Receives each projected output row.
using RowSink = std::function<void(const Row&)>;

/// Executes one PipelinePlan. Single-use: construct, Execute once.
class PipelineExecutor {
 public:
  /// `plan` must outlive the executor. Pass `options.reorder_inners =
  /// options.reorder_driving = false` for the static (no-switch) baseline.
  PipelineExecutor(const PipelinePlan* plan, AdaptiveOptions options = {});
  ~PipelineExecutor();

  /// Runs the plan to completion, invoking `sink` per output row (sink may
  /// be null to count only). Returns Internal on a second call (the
  /// executor is single-use), Cancelled / DeadlineExceeded when a
  /// cancellation token stopped the run early.
  StatusOr<ExecStats> Execute(const RowSink& sink);

  /// Installs a cooperative cancellation token, polled at the executor's
  /// depleted states (the paper's reorder-check points, so no probe
  /// hot-path cost): the cancel flag at every depleted state, the deadline
  /// at driving-row boundaries and every 1024th inner depletion. `token`
  /// must outlive Execute(); may be null (default) for non-cancellable
  /// runs. Call before Execute().
  void set_cancellation_token(const CancellationToken* token) {
    cancel_token_ = token;
  }

  /// Installs an instrumentation observer (see exec/exec_observer.h):
  /// driving rows, probe counters, emitted RID tuples, depleted states, and
  /// adaptation events. `observer` must outlive Execute(); may be null
  /// (default). Without an observer each hook site costs one null check.
  /// Call before Execute().
  void set_observer(ExecObserver* observer) { observer_ = observer; }

  /// Installs deliberate executor bugs (see exec/fault_injection.h) so the
  /// fuzzing oracle can prove it catches them. `faults` must outlive
  /// Execute(); null (default) means no sabotage. Call before Execute().
  void set_fault_injection(const FaultInjection* faults) { faults_ = faults; }

  /// Installs an engine-wide metrics registry: at the end of Execute() the
  /// run's policy decisions are added to `exec.policy_decisions` (one Add
  /// per query — nothing on the probe hot path). `metrics` must outlive Execute(); may be null (default). Call
  /// before Execute().
  void set_metrics(MetricsRegistry* metrics) { metrics_ = metrics; }

  /// Injects the AdaptationPolicy that will own this run's reorder/switch
  /// decisions. Default (no call): Execute() instantiates MakePolicy(options).
  /// Call before Execute(); for decorators that wrap the policy (e.g. to
  /// time Decide()).
  void set_policy(std::unique_ptr<AdaptationPolicy> policy);

  /// Morsel-parallel worker mode (see exec/adaptive_coordinator.h): driving
  /// rows come from the coordinator's shared morsel source instead of a
  /// private cursor, reorder decisions come from the coordinator's merged
  /// monitors (adopted at driving-row boundaries — full-pipeline depleted
  /// states), and worker-local monitor deltas are folded back after every
  /// morsel.
  /// Single-use, like Execute(). Called by ParallelPipelineExecutor
  /// (runtime/parallel_executor.h), not by user code.
  StatusOr<ExecStats> ExecuteWorker(AdaptiveCoordinator* coordinator,
                                    const RowSink& sink);

 private:
  friend class AdaptiveCoordinator;

  /// Per-leg runtime state.
  struct LegRt {
    const TableEntry* entry = nullptr;
    /// Full local predicate — applied in the inner role, where the probe
    /// index covers only the join predicate.
    BoundPredicatePtr local_bound;
    /// Residual local predicate for the driving role (conjuncts not
    /// absorbed into the driving index's ranges).
    BoundPredicatePtr driving_residual;
    /// Column index on this table's side of each edge (SIZE_MAX = edge
    /// does not touch this table).
    std::vector<size_t> edge_col;
    /// Tallest probe-index height (cost-model input).
    double index_height = 3;

    // Driving-scan state.
    std::unique_ptr<ScanCursor> cursor;
    double total_raw_entries = 0;  ///< entries the full driving scan covers
    /// Processed prefix (positional predicate) once demoted; in the scan
    /// order of `cursor`.
    std::optional<ScanPosition> prefix;
    /// Column index of the prefix's key (SIZE_MAX = RID order).
    size_t prefix_col = SIZE_MAX;
    /// Remaining entries/fraction behind `prefix`, frozen at demotion time —
    /// the prefix only moves when the leg drives again, so caching keeps
    /// the per-check cost free of B+-tree descents.
    double cached_remaining_entries = 0;
    double cached_remaining_fraction = 1.0;
    /// Latest coordinator demotion sequence number applied to this leg
    /// (worker mode only; see ParallelDemotion::seq).
    uint64_t demote_seq_seen = 0;

    // Monitors.
    LegMonitor inner_monitor;
    DrivingMonitor driving_monitor;

    // Inner-role state for the current incoming row.
    std::vector<Rid> matches;
    size_t match_pos = 0;
    bool loaded = false;
    size_t probe_edge = SIZE_MAX;
    std::vector<size_t> applicable_edges;  ///< edges to preceding tables
    uint64_t incoming_since_check = 0;
    /// Inner-check interval schedule (grows under back-off).
    CheckBackoff check_backoff;
  };

  Status InitLegs();
  Status CreateDrivingCursor(size_t t);
  /// Recomputes position-derived state (applicable edges, probe edge,
  /// loaded flags) for pipeline positions [from..k].
  void RefreshPositions(size_t from);
  /// Per-table view of the legs for the shared Eq 1 input builders
  /// (adaptive/controller.h). Remaining entries are the frozen demotion
  /// remainders; DrivingCheck fills in the live current driving leg's.
  std::vector<LegView> LegViews() const;
  /// Exact remaining scan entries for a leg that has (or had) a cursor.
  double RemainingEntries(size_t t) const;
  bool NextDrivingRow();
  /// Loads the leg at `level`'s matches for the current incoming row: one
  /// index probe, then residual join predicates, the local predicate, and
  /// any positional predicate.
  void ProbeLeg(size_t level);
  void DrivingCheck();
  void InnerCheck(size_t level);
  void Emit(const RowSink& sink);
  void EmitOnce(const RowSink& sink);
  /// Worker mode: applies a coordinator decision snapshot (new demotions,
  /// then the published order) at a full-pipeline depleted state, and
  /// reports the change through the observer once this worker has produced
  /// rows (so invariant I4's depleted-state precondition holds).
  void AdoptParallelSync(const ParallelWorkerSync& sync);
  /// Worker mode: folds this worker's monitor deltas into the coordinator.
  void FoldMonitors(AdaptiveCoordinator* coordinator);

  const PipelinePlan* plan_;
  AdaptiveOptions options_;
  std::vector<LegRt> legs_;        // indexed by query table index
  std::vector<size_t> order_;      // pipeline order; order_[0] = driving
  /// Current row of each table as a zero-copy view into its typed pages;
  /// owned Rows exist only at the Emit projection boundary.
  std::vector<RowView> current_rows_;
  /// RID of each table's current row (parallel to current_rows_): the
  /// identity of an emitted join combination for the observer hook.
  std::vector<Rid> current_rids_;
  std::vector<EdgeMonitor> edge_monitors_;
  std::vector<std::pair<size_t, size_t>> output_cols_;  // (table, column idx)
  WorkCounter wc_;
  uint64_t produced_since_check_ = 0;
  CheckBackoff driving_backoff_;
  /// Decision policy (serial mode only; workers adopt coordinator
  /// decisions and never own a policy).
  std::unique_ptr<AdaptationPolicy> policy_;
  /// Policy capabilities, cached at Execute() entry so the get-next loop's
  /// gates stay branch-on-bool (identical cost to the old reorder_* gates).
  bool adapt_inners_ = false;
  bool adapt_driving_ = false;
  const CancellationToken* cancel_token_ = nullptr;
  ExecObserver* observer_ = nullptr;
  const FaultInjection* faults_ = nullptr;
  MetricsRegistry* metrics_ = nullptr;
  /// Scratch buffer for ProbeLeg's probed RIDs (reused, so steady-state
  /// probes allocate nothing).
  std::vector<Rid> probe_rids_;
  uint64_t cancel_polls_ = 0;
  bool executed_ = false;
  /// Worker mode: the coordinator epoch this worker last adopted.
  uint64_t parallel_epoch_ = 0;
  ExecStats stats_;
};

}  // namespace ajr
