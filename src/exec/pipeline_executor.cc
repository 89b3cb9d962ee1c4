#include "exec/pipeline_executor.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "common/check.h"
#include "common/string_util.h"
#include "exec/exec_observer.h"
#include "exec/fault_injection.h"
#include "storage/key_codec.h"

namespace ajr {

PipelineExecutor::PipelineExecutor(const PipelinePlan* plan, AdaptiveOptions options)
    : plan_(plan), options_(options) {}

PipelineExecutor::~PipelineExecutor() = default;

Status PipelineExecutor::Init(const char* entry_point) {
  if (executed_) {
    return Status::Internal(StrCat("PipelineExecutor is single-use: ", entry_point,
                                   " was already called"));
  }
  executed_ = true;
  stats_ = ExecStats();
  const JoinQuery& q = plan_->query;
  const size_t n = q.tables.size();
  legs_.resize(n);
  current_rows_.assign(n, RowView());
  current_rids_.assign(n, 0);
  edge_monitors_.assign(q.edges.size(), EdgeMonitor(options_.history_window));
  for (size_t t = 0; t < n; ++t) {
    LegRt& leg = legs_[t];
    leg.entry = plan_->entries[t];
    leg.check_backoff = CheckBackoff(options_.check_frequency, options_.check_backoff);
    leg.inner_monitor = LegMonitor(options_.history_window);
    leg.driving_monitor = DrivingMonitor(options_.history_window);
    const StringPool& pool = leg.entry->table().pool();
    AJR_ASSIGN_OR_RETURN(
        leg.local_bound,
        BindPredicate(q.local_predicates[t], leg.entry->schema(), pool));
    AJR_ASSIGN_OR_RETURN(
        leg.driving_residual,
        BindPredicate(plan_->access[t].driving.residual, leg.entry->schema(), pool));
    leg.edge_col.assign(q.edges.size(), SIZE_MAX);
    for (const auto& e : q.edges) {
      if (!e.Touches(t)) continue;
      AJR_ASSIGN_OR_RETURN(size_t col,
                           leg.entry->schema().ColumnIndex(e.ColumnOn(t)));
      leg.edge_col[e.edge_id] = col;
    }
  }
  output_cols_.clear();
  for (const auto& oc : q.output) {
    AJR_ASSIGN_OR_RETURN(size_t col,
                         plan_->entries[oc.table]->schema().ColumnIndex(oc.column));
    output_cols_.emplace_back(oc.table, col);
  }
  order_ = plan_->initial_order;
  stats_.initial_order = order_;
  return Status::OK();
}

void PipelineExecutor::RefreshPositions(size_t from) {
  const CostInputs in = BuildProbeEdgeInputs(*plan_, edge_monitors_, options_);
  uint64_t mask = 0;
  for (size_t i = 0; i < from; ++i) mask |= uint64_t{1} << order_[i];
  for (size_t i = from; i < order_.size(); ++i) {
    size_t t = order_[i];
    LegRt& leg = legs_[t];
    leg.loaded = false;
    leg.matches.clear();
    leg.match_pos = 0;
    leg.applicable_edges.clear();
    for (const auto& e : plan_->query.edges) {
      if (e.Touches(t) && (mask & (uint64_t{1} << e.Other(t))) != 0) {
        leg.applicable_edges.push_back(e.edge_id);
      }
    }
    leg.probe_edge = ChooseProbeEdge(in, t, mask);
    AJR_CHECK(leg.probe_edge != SIZE_MAX);  // validated queries are connected
    mask |= uint64_t{1} << t;
  }
}

std::vector<LegView> PipelineExecutor::LegViews() const {
  std::vector<LegView> views(legs_.size());
  for (size_t t = 0; t < legs_.size(); ++t) {
    const LegRt& leg = legs_[t];
    views[t] = decider_->View(t, leg.inner_monitor, leg.driving_monitor, leg.demotion,
                              scans_->ever_promoted(t), scans_->total_entries(t));
  }
  return views;
}

PipelineExecutor::Pull PipelineExecutor::NextDrivingEntry(Rid* rid) {
  if (coordinator_ == nullptr) {
    return scans_->Next(&wc_, rid) ? Pull::kRow : Pull::kEnd;
  }
  while (morsel_pos_ == morsel_.rids.size()) {
    // Every row of the current morsel is through the pipeline: fold it
    // (one fold per morsel), then take the next one.
    if (stats_.monitor_folds < stats_.morsels) FoldMonitors();
    switch (coordinator_->AcquireMorsel(&morsel_)) {
      case AdaptiveCoordinator::Acquire::kAborted:
        return Pull::kAborted;
      case AdaptiveCoordinator::Acquire::kFinished:
        return Pull::kEnd;
      case AdaptiveCoordinator::Acquire::kMorsel:
        break;
    }
    ++stats_.morsels;
    morsel_pos_ = 0;
  }
  // Between driving entries the whole worker pipeline is depleted: the
  // decision-adoption point (the paper's moment of symmetry, per worker).
  if (coordinator_->published_epoch() != parallel_epoch_) {
    coordinator_->GetSync(&sync_);
    AdoptParallelSync(sync_);
  }
  *rid = morsel_.rids[morsel_pos_++];
  return Pull::kRow;
}

PipelineExecutor::Pull PipelineExecutor::NextDrivingRow() {
  Rid rid;
  for (;;) {
    const Pull pull = NextDrivingEntry(&rid);
    if (pull != Pull::kRow) return pull;
    // Read after the entry source, which may have adopted a new order.
    const size_t t = order_[0];
    LegRt& leg = legs_[t];
    RowView row = leg.entry->table().Fetch(rid, &wc_);
    bool pass = leg.driving_residual->EvalCounted(row, &wc_);
    leg.driving_monitor.RecordScannedEntry(pass);
    if (!pass) continue;
    current_rows_[t] = row;
    current_rids_[t] = rid;
    ++produced_since_check_;
    ++stats_.driving_rows_produced;
    if (observer_ != nullptr) {
      // Workers get positions from the dispenser, which records them only
      // for observed runs.
      observer_->OnDrivingRow(t, rid,
                              coordinator_ == nullptr
                                  ? scans_->position()
                                  : morsel_.positions[morsel_pos_ - 1]);
    }
    return Pull::kRow;
  }
}

void PipelineExecutor::ProbeLeg(size_t level) {
  size_t t = order_[level];
  LegRt& leg = legs_[t];
  leg.matches.clear();
  leg.match_pos = 0;
  leg.loaded = true;
  ++leg.incoming_since_check;
  const IndexInfo* probe_index = plan_->access[t].probe_index_by_edge[leg.probe_edge];
  const uint64_t work_before = wc_.total();
  const JoinQuery& q = plan_->query;
  const double table_card = static_cast<double>(leg.entry->table().num_rows());

  double fetched = 0, after_edges = 0, out = 0;
  auto consider = [&](Rid rid, const RowView& row) {
    // Residual join predicates; every candidate matches the probe edge.
    for (size_t e2 : leg.applicable_edges) {
      if (e2 == leg.probe_edge) continue;
      const JoinEdge& edge = q.edges[e2];
      size_t other = edge.Other(t);
      ChargeWork(&wc_, WorkCounter::kPredicateEval);
      bool eq = row.CellEquals(leg.edge_col[e2], current_rows_[other],
                               legs_[other].edge_col[e2]);
      edge_monitors_[e2].Record(1, eq ? 1 : 0);
      if (!eq) return;
    }
    after_edges += 1;
    if (!leg.local_bound->EvalCounted(row, &wc_)) return;
    // Positional predicate of a demoted driving leg (Sec 4.2).
    const Demotion& dem = leg.demotion;
    if (dem.demoted &&
        !(faults_ != nullptr && faults_->disable_positional_predicates)) {
      ChargeWork(&wc_, WorkCounter::kPredicateEval);
      bool after = dem.prefix_col == SIZE_MAX
                       ? dem.prefix.StrictlyBeforeRid(rid)
                       : dem.prefix.StrictlyBefore(row, dem.prefix_col, rid);
      if (!after) return;
    }
    out += 1;
    leg.matches.push_back(rid);
  };

  const size_t other = q.edges[leg.probe_edge].Other(t);
  const size_t other_col = legs_[other].edge_col[leg.probe_edge];
  if (probe_index != nullptr) {
    // Probe with the other side's cell directly — no Value materialization;
    // both tables' string ids come from the catalog's one sealed pool.
    IndexKey key = EncodeKeyFromCell(current_rows_[other], other_col);
    probe_rids_.clear();
    probe_index->tree->Probe(key, &wc_, &probe_rids_);
    for (Rid rid : probe_rids_) {
      RowView row = leg.entry->table().Fetch(rid, &wc_);
      fetched += 1;
      consider(rid, row);
    }
  } else {
    // No index on the join column: filtered full scan. The DMV workload
    // indexes every join column, but the fuzz generator builds tables
    // without some join indexes.
    const size_t my_col = leg.edge_col[leg.probe_edge];
    for (Rid rid = 0; rid < leg.entry->table().num_rows(); ++rid) {
      RowView row = leg.entry->table().Fetch(rid, &wc_);
      ChargeWork(&wc_, WorkCounter::kPredicateEval);
      if (!row.CellEquals(my_col, current_rows_[other], other_col)) continue;
      fetched += 1;
      consider(rid, row);
    }
  }
  edge_monitors_[leg.probe_edge].Record(table_card, fetched);
  leg.inner_monitor.RecordIncomingRow(after_edges, out,
                                      static_cast<double>(wc_.total() - work_before));
  if (observer_ != nullptr) {
    observer_->OnProbe(t, level, static_cast<uint64_t>(fetched),
                       static_cast<uint64_t>(after_edges),
                       static_cast<uint64_t>(out));
  }
}

void PipelineExecutor::DrivingCheck() {
  produced_since_check_ = 0;
  // Every driving check backs off, a switch too: a freshly promoted leg
  // is judged after the next interval, not on its first c rows.
  driving_backoff_.OnUnproductiveCheck();
  const size_t current = order_[0];
  std::vector<LegView> views = LegViews();
  views[current].remaining_entries =
      EntriesLeft(scans_->total_entries(current), scans_->dispensed(current));
  auto new_order =
      decider_->CheckDriving(views, edge_monitors_, order_, stats_.driving_rows_produced);
  if (!new_order.has_value()) return;

  // Demote the old driving leg: its processed prefix becomes its positional
  // predicate (Sec 4.2). The cursor is kept, so a re-promotion continues it.
  scans_->Demote(&legs_[current].demotion);
  scans_->Promote((*new_order)[0]);
  std::vector<size_t> order_before = std::exchange(order_, std::move(*new_order));
  RefreshPositions(1);
  ReportAdaptation(0, std::move(order_before), current);
}

void PipelineExecutor::InnerCheck(size_t level) {
  LegRt& checking_leg = legs_[order_[level]];
  checking_leg.incoming_since_check = 0;
  checking_leg.check_backoff.OnUnproductiveCheck();
  auto new_order = decider_->CheckInner(LegViews(), edge_monitors_, level,
                                        stats_.driving_rows_produced, order_);
  if (!new_order.has_value()) return;
  checking_leg.check_backoff.OnReorder();
  std::vector<size_t> order_before = std::exchange(order_, std::move(*new_order));
  RefreshPositions(level);
  ReportAdaptation(level, std::move(order_before), SIZE_MAX);
}

void PipelineExecutor::ReportAdaptation(size_t position,
                                        std::vector<size_t> order_before,
                                        size_t demoted_table) {
  if (observer_ == nullptr) return;
  AdaptationEvent ev;
  ev.kind = position == 0 ? AdaptationEvent::Kind::kDrivingSwitch
                          : AdaptationEvent::Kind::kInnerReorder;
  ev.position = position;
  ev.order_before = std::move(order_before);
  ev.order_after = order_;
  ev.driving_rows_produced = stats_.driving_rows_produced;
  if (demoted_table != SIZE_MAX) {
    ev.demoted_table = demoted_table;
    ev.demoted_prefix = legs_[demoted_table].demotion.prefix;
  }
  observer_->OnAdaptation(ev);
}

void PipelineExecutor::EmitOnce(const RowSink& sink) {
  ++stats_.rows_out;
  if (observer_ != nullptr) observer_->OnEmit(current_rids_);
  // Null-sink fast path: count-only runs never materialize Values.
  if (!sink) return;
  Row out;
  out.reserve(output_cols_.size());
  for (const auto& [t, col] : output_cols_) {
    out.push_back(current_rows_[t].GetValue(col));
  }
  sink(out);
}

void PipelineExecutor::Emit(const RowSink& sink) {
  EmitOnce(sink);
  if (faults_ != nullptr && faults_->double_emit) EmitOnce(sink);
}

Status PipelineExecutor::Stop(Status status) {
  if (coordinator_ != nullptr) coordinator_->Abort(status);
  return status;
}

Status PipelineExecutor::Run(const RowSink& sink) {
  const auto start = std::chrono::steady_clock::now();
  const size_t k = order_.size();
  // Only serial runs check; workers adopt the coordinator's decisions.
  const bool check_driving = decider_.has_value() && decider_->adapts_driving() && k > 1;
  const bool check_inners = decider_.has_value() && decider_->adapts_inners();
  int level = 0;
  while (level >= 0) {
    if (level == 0) {
      // The whole pipeline is depleted here (between driving rows): the
      // cheapest safe point for the full cancel + deadline poll.
      if (cancel_token_ != nullptr) {
        StopReason stop = cancel_token_->Check();
        if (stop != StopReason::kNone) return Stop(CancellationToken::ToStatus(stop));
      }
      if (check_driving && produced_since_check_ >= driving_backoff_.interval()) {
        DrivingCheck();
      }
      const Pull pull = NextDrivingRow();
      if (pull == Pull::kAborted) return Stop(coordinator_->abort_status());
      if (pull == Pull::kEnd) break;
      if (k == 1) {
        Emit(sink);
        continue;
      }
      legs_[order_[1]].loaded = false;
      level = 1;
      continue;
    }
    LegRt& leg = legs_[order_[level]];
    if (!leg.loaded) ProbeLeg(static_cast<size_t>(level));
    if (leg.match_pos < leg.matches.size()) {
      Rid rid = leg.matches[leg.match_pos++];
      current_rows_[order_[level]] = leg.entry->table().View(rid);
      current_rids_[order_[level]] = rid;
      if (static_cast<size_t>(level) + 1 == k) {
        Emit(sink);
      } else {
        legs_[order_[level + 1]].loaded = false;
        ++level;
      }
    } else {
      // Depleted state for segment [level..k] (Sec 4.1): check & reorder.
      // Also a safe cancellation point; the flag poll is one relaxed load,
      // and the deadline (a clock read) is consulted every 1024th time so
      // a query stuck under one pathological driving row still times out.
      leg.loaded = false;
      if (observer_ != nullptr) {
        observer_->OnDepleted(static_cast<size_t>(level));
      }
      if (cancel_token_ != nullptr) {
        StopReason stop = (++cancel_polls_ & 1023) == 0 ? cancel_token_->Check()
                                                        : cancel_token_->CheckFlag();
        if (stop != StopReason::kNone) return Stop(CancellationToken::ToStatus(stop));
      }
      if (check_inners && static_cast<size_t>(level) + 1 < k &&
          leg.incoming_since_check >= leg.check_backoff.interval()) {
        InnerCheck(static_cast<size_t>(level));
      }
      --level;
    }
  }
  stats_.final_order = order_;
  stats_.work_units = wc_.total();
  stats_.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  return Status::OK();
}

StatusOr<ExecStats> PipelineExecutor::Execute(const RowSink& sink) {
  AJR_RETURN_IF_ERROR(Init("Execute()"));
  decider_.emplace(plan_, options_, std::move(policy_));
  driving_backoff_ = CheckBackoff(options_.check_frequency, options_.check_backoff);
  scans_.emplace(plan_, /*record_positions=*/false);
  scans_->Promote(order_[0]);
  RefreshPositions(1);
  AJR_RETURN_IF_ERROR(Run(sink));
  decider_->FinishStats(&stats_);
  if (metrics_ != nullptr) {
    metrics_->GetCounter("exec.policy_decisions")->Add(stats_.policy_decisions);
  }
  return stats_;
}

}  // namespace ajr
