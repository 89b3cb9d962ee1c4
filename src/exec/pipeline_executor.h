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
// cursor is kept so a re-promotion continues the original scan.
//
// Serial runs (Execute) and morsel-parallel workers (ExecuteWorker) share
// that one loop; only its driving-entry source differs. A serial run pulls
// its DrivingScans one entry at a time and checks through its DecisionHost.
// A worker reads the morsels the AdaptiveCoordinator fills from its own
// DrivingScans, folds its monitors after each morsel, and adopts the
// coordinator's decisions before each driving entry, a full-pipeline
// depleted state (see pipeline_executor_parallel.cc).

#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "adaptive/controller.h"
#include "adaptive/decision_host.h"
#include "adaptive/monitor.h"
#include "common/cancellation.h"
#include "common/exec_stats.h"
#include "common/metrics.h"
#include "common/status.h"
#include "common/work_counter.h"
#include "exec/adaptive_coordinator.h"
#include "expr/evaluator.h"
#include "optimize/planner.h"

namespace ajr {

class ExecObserver;
struct FaultInjection;

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

  /// Injects the AdaptationPolicy this run's DecisionHost decides with.
  /// Default (no call): MakePolicy(options). Call before Execute(); for
  /// decorators that wrap the policy (e.g. to time Decide()). A worker
  /// ignores it: it adopts the coordinator's decisions.
  void set_policy(std::unique_ptr<AdaptationPolicy> policy) {
    policy_ = std::move(policy);
  }

  /// Morsel-parallel worker mode (see exec/adaptive_coordinator.h): the
  /// same get-next loop as Execute(), but driving entries come from the
  /// coordinator's morsels (a worker opens no driving scan of its own),
  /// reorder decisions come from the coordinator's merged monitors (adopted
  /// before each driving entry is handed out — a full-pipeline depleted
  /// state), and worker-local monitor deltas are folded back after every
  /// morsel.
  /// Single-use, like Execute(). Called by ParallelPipelineExecutor
  /// (runtime/parallel_executor.h), not by user code.
  StatusOr<ExecStats> ExecuteWorker(AdaptiveCoordinator* coordinator,
                                    const RowSink& sink);

 private:
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

    /// Positional predicate and frozen remainder once demoted.
    Demotion demotion;

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

  /// Shared set-up of both entry points: the single-use rule, the legs,
  /// the initial order, and fresh stats.
  Status Init(const char* entry_point);
  /// Recomputes position-derived state (applicable edges, probe edge,
  /// loaded flags) for pipeline positions [from..k].
  void RefreshPositions(size_t from);
  /// The legs as the DecisionHost's views for the serial checks;
  /// DrivingCheck fills in the live current driving leg's remaining
  /// entries.
  std::vector<LegView> LegViews() const;

  /// The get-next loop of both entry points (Sec 4.1): runs the pipeline
  /// until the driving entries run out or a stop path fires, then records
  /// the final order, work units and wall time.
  Status Run(const RowSink& sink);
  /// Every stop path (cancel, deadline, coordinator abort): aborts the
  /// coordinator, when there is one, and returns `status`.
  Status Stop(Status status);

  enum class Pull { kRow, kEnd, kAborted };
  /// Next driving-scan entry: from scans_ in serial mode, from the current
  /// morsel in worker mode. A worker first folds a finished morsel and
  /// acquires the next one, then adopts any newer coordinator decision;
  /// kAborted when the coordinator aborted.
  Pull NextDrivingEntry(Rid* rid);
  /// Next driving row that survives the driving residual, made current.
  Pull NextDrivingRow();
  /// Loads the leg at `level`'s matches for the current incoming row: one
  /// index probe, then residual join predicates, the local predicate, and
  /// any positional predicate.
  void ProbeLeg(size_t level);
  void DrivingCheck();
  void InnerCheck(size_t level);
  /// Reports the order change that just took effect from pipeline
  /// `position` (0 = a driving switch, else an inner reorder) to the
  /// observer, if any. `demoted_table` (SIZE_MAX = none) names a switch's
  /// demoted leg, whose recorded prefix the event carries.
  void ReportAdaptation(size_t position, std::vector<size_t> order_before,
                        size_t demoted_table);
  void Emit(const RowSink& sink);
  void EmitOnce(const RowSink& sink);
  /// Worker mode: applies a coordinator decision snapshot (new demotions,
  /// then the published order) at a full-pipeline depleted state, and
  /// reports the change through the observer once this worker has produced
  /// rows (so invariant I4's depleted-state precondition holds).
  void AdoptParallelSync(const ParallelWorkerSync& sync);
  /// Worker mode: folds this worker's monitor deltas into the coordinator.
  void FoldMonitors();

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
  /// Serial runs' driving scans, their work charged to wc_; built by
  /// Execute() only. A worker has none: its entries come from the
  /// coordinator's scans.
  std::optional<DrivingScans> scans_;
  /// The policy set_policy injected, until Execute() hands it to decider_.
  std::unique_ptr<AdaptationPolicy> policy_;
  /// Decides serial runs; built by Execute() only. A worker has none: it
  /// adopts the coordinator's decisions.
  std::optional<DecisionHost> decider_;
  const CancellationToken* cancel_token_ = nullptr;
  ExecObserver* observer_ = nullptr;
  const FaultInjection* faults_ = nullptr;
  MetricsRegistry* metrics_ = nullptr;
  /// Scratch buffer for ProbeLeg's probed RIDs (reused, so steady-state
  /// probes allocate nothing).
  std::vector<Rid> probe_rids_;
  uint64_t cancel_polls_ = 0;
  bool executed_ = false;
  /// Worker mode (coordinator_ is null in serial runs): the morsel being
  /// consumed, the next entry's index in it, the last snapshot taken and
  /// the coordinator epoch this worker last adopted.
  AdaptiveCoordinator* coordinator_ = nullptr;
  ParallelMorsel morsel_;
  size_t morsel_pos_ = 0;
  ParallelWorkerSync sync_;
  uint64_t parallel_epoch_ = 0;
  ExecStats stats_;
};

}  // namespace ajr
