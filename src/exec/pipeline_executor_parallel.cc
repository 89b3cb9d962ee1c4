// PipelineExecutor worker mode: one morsel-parallel pipeline clone.
//
// ExecuteWorker runs Execute()'s get-next loop (pipeline_executor.cc) with
// the driving entries taken from the coordinator's morsels and its checks
// replaced by adoption of the decisions the AdaptiveCoordinator's
// DecisionHost makes. This file holds the worker-only pieces: set-up,
// adoption, and the monitor fold. Everything below the driving leg —
// probing, monitors, observer hooks, work accounting — is the serial loop
// itself: a worker is a complete serial pipeline over a subset of the
// driving rows.

#include "exec/adaptive_coordinator.h"
#include "exec/exec_observer.h"
#include "exec/pipeline_executor.h"

namespace ajr {

void PipelineExecutor::AdoptParallelSync(const ParallelWorkerSync& sync) {
  std::vector<size_t> order_before = order_;
  bool demoted_any = false;
  for (size_t t = 0; t < sync.demotions.size(); ++t) {
    const Demotion& dem = sync.demotions[t];
    // Never demoted (seq 0) or already applied.
    if (dem.seq <= legs_[t].demotion.seq) continue;
    legs_[t].demotion = dem;
    demoted_any = true;
  }
  const bool order_changed = order_ != sync.order;
  order_ = sync.order;
  parallel_epoch_ = sync.epoch;
  if (!order_changed && !demoted_any) return;
  // Mid-morsel adoptions can only be inner reorders — a driving switch is
  // installed while every worker is parked at the drain barrier, so by the
  // time this worker runs again it is between morsels.
  RefreshPositions(1);
  if (stats_.driving_rows_produced == 0) return;
  // A worker that sat out a switch adopts several demotions at once; the
  // leg it saw demoted is the one that drove it before.
  const size_t old_driving = order_before[0];
  const bool switched = old_driving != order_[0];
  ReportAdaptation(switched ? 0 : 1, std::move(order_before),
                   switched ? old_driving : SIZE_MAX);
}

void PipelineExecutor::FoldMonitors() {
  WorkerMonitorDeltas deltas;
  deltas.inner.reserve(legs_.size());
  deltas.driving.reserve(legs_.size());
  for (LegRt& leg : legs_) {
    deltas.inner.push_back(leg.inner_monitor.TakeDelta());
    deltas.driving.push_back(leg.driving_monitor.TakeDelta());
  }
  deltas.edges.reserve(edge_monitors_.size());
  for (EdgeMonitor& em : edge_monitors_) deltas.edges.push_back(em.TakeDelta());
  coordinator_->Fold(deltas);
  ++stats_.monitor_folds;
}

StatusOr<ExecStats> PipelineExecutor::ExecuteWorker(
    AdaptiveCoordinator* coordinator, const RowSink& sink) {
  coordinator_ = coordinator;
  Status init = Init("ExecuteWorker()");
  if (!init.ok()) return Stop(std::move(init));
  if (!coordinator_->RegisterWorker(&sync_)) {
    // Execution already ended before this worker started.
    if (coordinator_->aborted()) return coordinator_->abort_status();
    stats_.final_order = order_;
    return stats_;
  }
  RefreshPositions(1);
  AdoptParallelSync(sync_);
  AJR_RETURN_IF_ERROR(Run(sink));
  return stats_;
}

}  // namespace ajr
