// ParallelPipelineExecutor: morsel-parallel adaptive execution of one
// PipelinePlan (the orchestrator over exec/'s worker mode).
//
// The driving leg's scan is split into morsels by the AdaptiveCoordinator's
// DrivingScans, the class a serial run pulls one entry at a time, so
// cursors, scan totals and demotions are the serial ones. `dop`
// worker-local PipelineExecutor clones pull morsels and run the ordinary
// serial pipeline over them, folding their monitor deltas after every
// morsel into the coordinator, which runs the paper's reorder checks over
// the merged, fleet-wide statistics (see exec/adaptive_coordinator.h for
// the decision-publication and driving-switch drain protocol). Morsel size
// is not a knob: the coordinator's ramp starts at c (check_frequency)
// entries, so the fleet decides as early as the serial executor, and
// doubles after every fold that changes nothing.
//
// dop <= 1 delegates to the serial PipelineExecutor unchanged — same code
// path, same work units, bit-identical results and stats.
//
// Worker threads come from an optional ThreadPool via WorkerLease (a busy
// pool degrades the dop instead of deadlocking); without a pool the
// executor spawns its own threads. The calling thread always acts as
// worker 0, so execution proceeds even when no extra thread is available.

#pragma once

#include <memory>
#include <vector>

#include "adaptive/controller.h"
#include "common/cancellation.h"
#include "common/metrics.h"
#include "exec/pipeline_executor.h"
#include "optimize/planner.h"
#include "runtime/thread_pool.h"

namespace ajr {

class ExecObserver;
struct FaultInjection;

/// Knobs of one parallel execution.
struct ParallelExecOptions {
  /// Degree of parallelism: worker pipelines running concurrently. <= 1
  /// means serial execution (the untouched PipelineExecutor path).
  size_t dop = 1;
  /// Thread source for workers beyond worker 0 (null = spawn threads).
  ThreadPool* pool = nullptr;
  /// Run the morsel-parallel orchestration even at dop <= 1 instead of
  /// delegating to the serial executor. Used by the differential oracle to
  /// exercise the coordinator/dispenser machinery deterministically (one
  /// worker = serial morsel order).
  bool force_parallel = false;
};

class ParallelPipelineExecutor {
 public:
  /// `plan` must outlive the executor. Single-use, like PipelineExecutor.
  ParallelPipelineExecutor(const PipelinePlan* plan, AdaptiveOptions options,
                           ParallelExecOptions parallel);

  /// See PipelineExecutor setters; all must be called before Execute().
  void set_cancellation_token(const CancellationToken* token) {
    cancel_token_ = token;
  }
  void set_metrics(MetricsRegistry* metrics) { metrics_ = metrics; }
  void set_fault_injection(const FaultInjection* faults) { faults_ = faults; }
  /// Per-worker observers (worker w gets observers[w]; missing or null
  /// entries mean unobserved). Installing any observer makes the driving
  /// scans record positions for OnDrivingRow. The serial path (dop <= 1)
  /// uses observers[0].
  void set_worker_observers(std::vector<ExecObserver*> observers) {
    observers_ = std::move(observers);
  }

  /// Runs the plan to completion. `sink` (may be null) is invoked under an
  /// internal mutex in parallel runs: rows arrive atomically but in a
  /// nondeterministic interleaving — the row *multiset* is what parallel
  /// execution preserves. The merged stats carry fleet totals plus the
  /// coordinator's decision counters; `parallel_workers` is the number of
  /// workers that processed at least one morsel.
  StatusOr<ExecStats> Execute(const RowSink& sink);

  /// Per-worker stats of the last Execute (index = worker id; empty stats
  /// for workers that never ran). Valid after a successful Execute.
  const std::vector<ExecStats>& worker_stats() const { return worker_stats_; }

 private:
  ExecObserver* ObserverFor(size_t worker) const {
    return worker < observers_.size() ? observers_[worker] : nullptr;
  }

  const PipelinePlan* plan_;
  AdaptiveOptions options_;
  ParallelExecOptions parallel_;
  const CancellationToken* cancel_token_ = nullptr;
  MetricsRegistry* metrics_ = nullptr;
  const FaultInjection* faults_ = nullptr;
  std::vector<ExecObserver*> observers_;
  std::vector<ExecStats> worker_stats_;
  bool executed_ = false;
};

}  // namespace ajr
