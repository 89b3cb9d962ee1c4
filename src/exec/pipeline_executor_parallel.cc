// PipelineExecutor worker mode: one morsel-parallel pipeline clone.
//
// ExecuteWorker is Execute() with the driving scan replaced by the shared
// morsel dispenser and the decision procedures replaced by adoption of the
// AdaptiveCoordinator's published decisions. Everything below the driving
// leg — probing, monitors, observer hooks, work accounting — is the serial
// code path, untouched: a worker is a complete serial pipeline over a
// subset of the driving rows.

#include <cassert>
#include <chrono>

#include "exec/adaptive_coordinator.h"
#include "exec/exec_observer.h"
#include "exec/pipeline_executor.h"

namespace ajr {

void ExecStats::MergeFrom(const ExecStats& worker) {
  rows_out += worker.rows_out;
  work_units += worker.work_units;
  driving_rows_produced += worker.driving_rows_produced;
  morsels += worker.morsels;
  monitor_folds += worker.monitor_folds;
}

void PipelineExecutor::AdoptParallelSync(const ParallelWorkerSync& sync) {
  std::vector<size_t> order_before = order_;
  bool demoted_any = false;
  size_t demoted_table = SIZE_MAX;
  for (size_t t = 0; t < sync.demotions.size(); ++t) {
    const ParallelDemotion& dem = sync.demotions[t];
    if (!dem.demoted) continue;
    LegRt& leg = legs_[t];
    if (leg.demote_seq_seen >= dem.seq) continue;  // already applied
    leg.prefix = dem.prefix;
    leg.prefix_col = dem.prefix_col;
    leg.cached_remaining_entries = dem.remaining_entries;
    leg.cached_remaining_fraction = dem.remaining_fraction;
    leg.demote_seq_seen = dem.seq;
    demoted_any = true;
    demoted_table = t;
  }
  const bool order_changed = order_ != sync.order;
  order_ = sync.order;
  parallel_epoch_ = sync.epoch;
  if (!order_changed && !demoted_any) return;
  // Mid-morsel adoptions can only be inner reorders — a driving switch is
  // installed while every worker is parked at the drain barrier, so by the
  // time this worker runs again it is between morsels.
  RefreshPositions(1);
  if (observer_ != nullptr && stats_.driving_rows_produced > 0) {
    AdaptationEvent ev;
    const bool switched = order_before[0] != order_[0];
    ev.kind = switched ? AdaptationEvent::Kind::kDrivingSwitch
                       : AdaptationEvent::Kind::kInnerReorder;
    ev.position = switched ? 0 : 1;
    ev.order_before = std::move(order_before);
    ev.order_after = order_;
    ev.driving_rows_produced = stats_.driving_rows_produced;
    if (switched && demoted_table != SIZE_MAX) {
      ev.demoted_table = demoted_table;
      ev.demoted_prefix = legs_[demoted_table].prefix;
    }
    observer_->OnAdaptation(ev);
  }
}

void PipelineExecutor::FoldMonitors(AdaptiveCoordinator* coordinator) {
  WorkerMonitorDeltas deltas;
  deltas.inner.reserve(legs_.size());
  deltas.driving.reserve(legs_.size());
  for (LegRt& leg : legs_) {
    deltas.inner.push_back(leg.inner_monitor.TakeDelta());
    deltas.driving.push_back(leg.driving_monitor.TakeDelta());
  }
  deltas.edges.reserve(edge_monitors_.size());
  for (EdgeMonitor& em : edge_monitors_) deltas.edges.push_back(em.TakeDelta());
  coordinator->Fold(deltas);
  ++stats_.monitor_folds;
}

StatusOr<ExecStats> PipelineExecutor::ExecuteWorker(
    AdaptiveCoordinator* coordinator, const RowSink& sink) {
  if (executed_) {
    return Status::Internal(
        "PipelineExecutor is single-use: ExecuteWorker() was already called");
  }
  executed_ = true;
  stats_ = ExecStats();
  Status init = InitLegs();
  if (!init.ok()) {
    coordinator->Abort(init);
    return init;
  }
  order_ = plan_->initial_order;
  stats_.initial_order = order_;

  ParallelWorkerSync sync;
  if (!coordinator->RegisterWorker(&sync)) {
    // Execution already ended before this worker started.
    if (coordinator->aborted()) return coordinator->abort_status();
    stats_.final_order = order_;
    return stats_;
  }
  RefreshPositions(1);
  AdoptParallelSync(sync);

  const auto start = std::chrono::steady_clock::now();
  const size_t k = order_.size();
  ParallelMorsel morsel;
  bool finished = false;
  while (!finished) {
    switch (coordinator->AcquireMorsel(&morsel)) {
      case AdaptiveCoordinator::Acquire::kAborted:
        return coordinator->abort_status();
      case AdaptiveCoordinator::Acquire::kFinished:
        finished = true;
        continue;
      case AdaptiveCoordinator::Acquire::kMorsel:
        break;
    }
    ++stats_.morsels;
    for (size_t mi = 0; mi < morsel.rids.size(); ++mi) {
      // Between driving rows the whole worker pipeline is depleted: the
      // full cancel + deadline poll and the decision-adoption point (the
      // paper's moment of symmetry, per worker).
      if (cancel_token_ != nullptr) {
        StopReason stop = cancel_token_->Check();
        if (stop != StopReason::kNone) {
          Status st = CancellationToken::ToStatus(stop);
          coordinator->Abort(st);
          return st;
        }
      }
      if (coordinator->published_epoch() != parallel_epoch_) {
        coordinator->GetSync(&sync);
        AdoptParallelSync(sync);
      }
      const size_t t = order_[0];
      LegRt& leg = legs_[t];
      const Rid rid = morsel.rids[mi];
      RowView row = leg.entry->table().Fetch(rid, &wc_);
      bool pass = leg.driving_residual->EvalCounted(row, &wc_);
      leg.driving_monitor.RecordScannedEntry(pass);
      if (!pass) continue;
      current_rows_[t] = row;
      current_rids_[t] = rid;
      ++stats_.driving_rows_produced;
      if (observer_ != nullptr) {
        // Positions are recorded by the dispenser only for observed runs.
        observer_->OnDrivingRow(t, rid, morsel.positions[mi]);
      }
      if (k == 1) {
        Emit(sink);
        continue;
      }
      legs_[order_[1]].loaded = false;
      int level = 1;
      while (level >= 1) {
        LegRt& inner = legs_[order_[level]];
        if (!inner.loaded) ProbeLeg(static_cast<size_t>(level));
        if (inner.match_pos < inner.matches.size()) {
          Rid mrid = inner.matches[inner.match_pos++];
          current_rows_[order_[level]] = inner.entry->table().View(mrid);
          current_rids_[order_[level]] = mrid;
          if (static_cast<size_t>(level) + 1 == k) {
            Emit(sink);
          } else {
            legs_[order_[level + 1]].loaded = false;
            ++level;
          }
        } else {
          // Depleted state for segment [level..k]: observer hook and the
          // cheap cancellation poll, exactly as in the serial loop. No
          // reorder check — decisions belong to the coordinator.
          inner.loaded = false;
          if (observer_ != nullptr) {
            observer_->OnDepleted(static_cast<size_t>(level));
          }
          if (cancel_token_ != nullptr) {
            StopReason stop = (++cancel_polls_ & 1023) == 0
                                  ? cancel_token_->Check()
                                  : cancel_token_->CheckFlag();
            if (stop != StopReason::kNone) {
              Status st = CancellationToken::ToStatus(stop);
              coordinator->Abort(st);
              return st;
            }
          }
          --level;
        }
      }
    }
    // One fold per morsel: the coordinator checks at every fold, and the
    // morsel ramp keeps folds rare once the order settles. Every processed
    // morsel is folded, so nothing is left to fold at the end.
    FoldMonitors(coordinator);
  }
  stats_.final_order = order_;
  stats_.work_units = wc_.total();
  stats_.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  return stats_;
}

}  // namespace ajr
