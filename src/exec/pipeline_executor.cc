#include "exec/pipeline_executor.h"

#include <algorithm>
#include <cassert>
#include <chrono>

#include "adaptive/policy.h"
#include "common/check.h"
#include "common/string_util.h"
#include "exec/exec_observer.h"
#include "exec/fault_injection.h"
#include "storage/key_codec.h"

namespace ajr {

namespace {

// Sample floor for monitored selectivities in inner-reorder decisions (see
// BuildRuntimeCostInputs doc comment).
constexpr uint64_t kInnerMinSamples = 2;

}  // namespace

PipelineExecutor::PipelineExecutor(const PipelinePlan* plan, AdaptiveOptions options)
    : plan_(plan), options_(options) {}

PipelineExecutor::~PipelineExecutor() = default;

void PipelineExecutor::set_policy(std::unique_ptr<AdaptationPolicy> policy) {
  policy_ = std::move(policy);
}

Status PipelineExecutor::InitLegs() {
  const JoinQuery& q = plan_->query;
  const size_t n = q.tables.size();
  legs_.resize(n);
  current_rows_.assign(n, RowView());
  current_rids_.assign(n, 0);
  edge_monitors_.assign(q.edges.size(),
                        EdgeMonitor(options_.history_window, options_.averaging));
  for (size_t t = 0; t < n; ++t) {
    LegRt& leg = legs_[t];
    leg.entry = plan_->entries[t];
    leg.check_backoff = CheckBackoff(options_.check_frequency, options_.check_backoff);
    leg.inner_monitor = LegMonitor(options_.history_window, options_.averaging);
    leg.driving_monitor = DrivingMonitor(options_.history_window, options_.averaging);
    // Bind against the table's string pool so string-equality constants
    // lower to interned-id compares.
    const StringPool* pool = &leg.entry->table().pool();
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
    for (const auto& idx : leg.entry->indexes()) {
      leg.index_height =
          std::max(leg.index_height, static_cast<double>(idx->tree->height()));
    }
  }
  output_cols_.clear();
  for (const auto& oc : q.output) {
    AJR_ASSIGN_OR_RETURN(size_t col,
                         plan_->entries[oc.table]->schema().ColumnIndex(oc.column));
    output_cols_.emplace_back(oc.table, col);
  }
  return Status::OK();
}

Status PipelineExecutor::CreateDrivingCursor(size_t t) {
  LegRt& leg = legs_[t];
  const DrivingAccess& access = plan_->access[t].driving;
  if (access.index != nullptr) {
    leg.cursor = std::make_unique<IndexScanCursor>(access.index->tree.get(),
                                                   access.ranges);
    leg.total_raw_entries = static_cast<double>(
        CountRangeEntriesAfter(*access.index->tree, access.ranges, std::nullopt));
    leg.prefix_col = access.index->column_idx;
  } else {
    leg.cursor = std::make_unique<TableScanCursor>(&leg.entry->table());
    leg.total_raw_entries = static_cast<double>(leg.entry->table().num_rows());
    leg.prefix_col = SIZE_MAX;
  }
  return Status::OK();
}

void PipelineExecutor::RefreshPositions(size_t from) {
  CostInputs in = BuildRuntimeCostInputs(kInnerMinSamples);
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
    mask |= uint64_t{1} << t;
  }
}

CostInputs PipelineExecutor::BuildRuntimeCostInputs(uint64_t min_leg_samples) const {
  CostInputs in;
  in.query = &plan_->query;
  const size_t n = plan_->query.tables.size();
  in.tables.resize(n);
  for (size_t t = 0; t < n; ++t) {
    const LegRt& leg = legs_[t];
    LegParams& p = in.tables[t];
    p.cardinality = static_cast<double>(leg.entry->StatsCardinality());
    p.index_height = leg.index_height;
    p.local_sel = EffectiveLocalSel(leg.inner_monitor, leg.driving_monitor,
                                    plan_->est_local_sel[t],
                                    plan_->access[t].driving.est_slpi,
                                    min_leg_samples);
    // A demoted leg's positional predicate shrinks its effective
    // cardinality to the unprocessed remainder.
    if (leg.prefix.has_value()) {
      p.local_sel *= leg.cached_remaining_fraction;
    }
  }
  in.edge_sel.resize(plan_->query.edges.size());
  for (size_t e = 0; e < in.edge_sel.size(); ++e) {
    in.edge_sel[e] =
        edge_monitors_[e].Selectivity(plan_->est_edge_sel[e], options_.min_edge_pairs);
  }
  return in;
}

double PipelineExecutor::RemainingEntries(size_t t) const {
  const LegRt& leg = legs_[t];
  assert(leg.cursor != nullptr);
  const DrivingAccess& access = plan_->access[t].driving;
  // Position: for the current driving leg, the live cursor position; for a
  // demoted leg, its recorded prefix.
  std::optional<ScanPosition> pos = leg.prefix;
  if (t == order_[0] && leg.driving_monitor.scanned_total() > 0) {
    pos = leg.cursor->CurrentPosition();
  }
  if (access.index != nullptr) {
    return static_cast<double>(
        CountRangeEntriesAfter(*access.index->tree, access.ranges, pos));
  }
  size_t total = leg.entry->table().num_rows();
  size_t done = pos.has_value() ? static_cast<size_t>(pos->rid) + 1 : 0;
  return static_cast<double>(total > done ? total - done : 0);
}

bool PipelineExecutor::NextDrivingRow() {
  size_t t = order_[0];
  LegRt& leg = legs_[t];
  Rid rid;
  while (leg.cursor->Next(&wc_, &rid)) {
    RowView row = leg.entry->table().Fetch(rid, &wc_);
    bool pass = leg.driving_residual->EvalCounted(row, &wc_);
    leg.driving_monitor.RecordScannedEntry(pass);
    if (!pass) continue;
    current_rows_[t] = row;
    current_rids_[t] = rid;
    ++produced_since_check_;
    ++stats_.driving_rows_produced;
    if (observer_ != nullptr) {
      observer_->OnDrivingRow(t, rid, leg.cursor->CurrentPosition());
    }
    return true;
  }
  return false;
}

void PipelineExecutor::ProbeLeg(size_t level) {
  size_t t = order_[level];
  LegRt& leg = legs_[t];
  leg.matches.clear();
  leg.match_pos = 0;
  leg.loaded = true;
  ++leg.incoming_since_check;
  const IndexInfo* probe_index =
      leg.probe_edge == SIZE_MAX ? nullptr
                                 : plan_->access[t].probe_index_by_edge[leg.probe_edge];
  // The shared cache serves indexed legs whose sole applicable edge is the
  // probe edge and whose positional predicate is not live. There the
  // residual-edge loop below is empty (the probe edge is known to match),
  // so a probe's entire outcome — matches, fetched count, work units — is a
  // pure function of (leg signature, key) and can be replayed.
  const bool shared = shared_cache_ != nullptr && probe_index != nullptr &&
                      !leg.prefix.has_value() && leg.applicable_edges.size() == 1 &&
                      leg.applicable_edges[0] == leg.probe_edge;
  const uint64_t work_before = wc_.total();
  const JoinQuery& q = plan_->query;
  const double table_card = static_cast<double>(leg.entry->table().num_rows());

  double fetched = 0, after_edges = 0, out = 0;
  auto consider = [&](Rid rid, const RowView& row, bool probe_edge_known_to_match) {
    // Residual join predicates (edges other than the probe edge).
    for (size_t e2 : leg.applicable_edges) {
      if (e2 == leg.probe_edge && probe_edge_known_to_match) continue;
      const JoinEdge& edge = q.edges[e2];
      size_t other = edge.Other(t);
      ChargeWork(&wc_, WorkCounter::kPredicateEval);
      bool eq = row.CellEquals(leg.edge_col[e2], current_rows_[other],
                               legs_[other].edge_col[e2]);
      if (e2 != leg.probe_edge) edge_monitors_[e2].Record(1, eq ? 1 : 0);
      if (!eq) return;
    }
    after_edges += 1;
    if (!leg.local_bound->EvalCounted(row, &wc_)) return;
    // Positional predicate of a demoted driving leg (Sec 4.2).
    if (leg.prefix.has_value() &&
        !(faults_ != nullptr && faults_->disable_positional_predicates)) {
      ChargeWork(&wc_, WorkCounter::kPredicateEval);
      bool after = leg.prefix_col == SIZE_MAX
                       ? leg.prefix->StrictlyBeforeRid(rid)
                       : leg.prefix->StrictlyBefore(row, leg.prefix_col, rid);
      if (!after) return;
    }
    out += 1;
    leg.matches.push_back(rid);
  };

  if (probe_index != nullptr) {
    const JoinEdge& edge = q.edges[leg.probe_edge];
    size_t other = edge.Other(t);
    // Probe with the other side's cell directly — no Value materialization;
    // string keys borrow bytes from the other table's pool (stable storage).
    IndexKey key = EncodeKeyFromCell(current_rows_[other],
                                     legs_[other].edge_col[leg.probe_edge]);
    const BPlusTree* tree = probe_index->tree.get();
    if (shared && ReplaySharedProbe(level, tree, key)) return;
    probe_rids_.clear();
    tree->Probe(key, &wc_, &probe_rids_);
    for (Rid rid : probe_rids_) {
      RowView row = leg.entry->table().Fetch(rid, &wc_);
      fetched += 1;
      consider(rid, row, /*probe_edge_known_to_match=*/true);
    }
    edge_monitors_[leg.probe_edge].Record(table_card, fetched);
    if (shared) {
      bool conflict = false;
      shared_cache_->Insert(leg.shared_sig, key, leg.matches,
                            static_cast<uint64_t>(fetched), wc_.total() - work_before,
                            &conflict);
      if (conflict) stats_.probe_cache_shared_conflicts += 1;
    }
  } else if (leg.probe_edge != SIZE_MAX) {
    // No index on the join column: filtered full scan (never hit by the DMV
    // workload, kept for generality).
    const JoinEdge& edge = q.edges[leg.probe_edge];
    size_t other = edge.Other(t);
    const RowView& other_row = current_rows_[other];
    size_t other_col = legs_[other].edge_col[leg.probe_edge];
    size_t my_col = leg.edge_col[leg.probe_edge];
    for (Rid rid = 0; rid < leg.entry->table().num_rows(); ++rid) {
      RowView row = leg.entry->table().Fetch(rid, &wc_);
      ChargeWork(&wc_, WorkCounter::kPredicateEval);
      if (!row.CellEquals(my_col, other_row, other_col)) continue;
      fetched += 1;
      consider(rid, row, /*probe_edge_known_to_match=*/true);
    }
    edge_monitors_[leg.probe_edge].Record(table_card, fetched);
  } else {
    // Cartesian leg (validated queries are connected, so unreachable), but
    // stay total: every row is a candidate.
    for (Rid rid = 0; rid < leg.entry->table().num_rows(); ++rid) {
      RowView row = leg.entry->table().Fetch(rid, &wc_);
      fetched += 1;
      consider(rid, row, false);
    }
  }
  leg.inner_monitor.RecordIncomingRow(after_edges, out,
                                      static_cast<double>(wc_.total() - work_before));
  if (observer_ != nullptr) {
    observer_->OnProbe(t, level, static_cast<uint64_t>(fetched),
                       static_cast<uint64_t>(after_edges),
                       static_cast<uint64_t>(out));
  }
}

bool PipelineExecutor::ReplaySharedProbe(size_t level, const BPlusTree* tree,
                                         const IndexKey& key) {
  const size_t t = order_[level];
  LegRt& leg = legs_[t];
  // The signature pins the probe index, the leg's local predicate, and its
  // demotion epoch: a demotion retires only this leg's shared entries.
  if (leg.shared_sig_index != tree || leg.shared_sig_epoch != leg.demotion_epoch) {
    const ExprPtr& pred = plan_->query.local_predicates[t];
    leg.shared_sig = SharedProbeCache::LegSignature(
        tree, pred != nullptr ? pred->ToString() : std::string(), leg.demotion_epoch);
    leg.shared_sig_index = tree;
    leg.shared_sig_epoch = leg.demotion_epoch;
  }
  bool conflict = false;
  const bool hit = shared_cache_->Lookup(leg.shared_sig, key, &shared_hit_, &conflict);
  if (conflict) stats_.probe_cache_shared_conflicts += 1;
  if (!hit) {
    stats_.probe_cache_shared_misses += 1;
    return false;
  }
  stats_.probe_cache_shared_hits += 1;
  // Replay the probe's accounting exactly as ProbeLeg charged it when the
  // entry was recorded. With a single applicable edge the after-edges count
  // equals the fetched count and no residual edge monitor is touched, so
  // the work total, the monitors, and the observer see the same numbers —
  // the adaptive controller and the differential oracle cannot tell a
  // replay from a probe.
  const uint64_t fetched = shared_hit_.fetched;
  const uint64_t out = shared_hit_.matches.size();
  wc_.Add(shared_hit_.work_units);
  edge_monitors_[leg.probe_edge].Record(
      static_cast<double>(leg.entry->table().num_rows()), static_cast<double>(fetched));
  leg.inner_monitor.RecordIncomingRow(static_cast<double>(fetched),
                                      static_cast<double>(out),
                                      static_cast<double>(shared_hit_.work_units));
  if (observer_ != nullptr) observer_->OnProbe(t, level, fetched, fetched, out);
  leg.matches.swap(shared_hit_.matches);
  return true;
}

void PipelineExecutor::DrivingCheck() {
  produced_since_check_ = 0;
  ++stats_.driving_checks;
  // Back-off bookkeeping: assume unproductive; a switch below resets it.
  driving_backoff_.OnUnproductiveCheck();
  CostInputs in = BuildRuntimeCostInputs(options_.min_leg_samples);
  const size_t current = order_[0];
  const double current_remaining = RemainingEntries(current);
  // Anticipate the demotion of the current driving leg: as an inner leg its
  // positional predicate would keep only the unprocessed remainder.
  if (legs_[current].total_raw_entries > 0) {
    in.tables[current].local_sel *= std::min(
        1.0, current_remaining / legs_[current].total_raw_entries);
  }

  std::vector<DrivingCandidate> candidates(in.tables.size());
  for (size_t t = 0; t < in.tables.size(); ++t) {
    DrivingCandidate& cand = candidates[t];
    cand.table = t;
    const LegRt& leg = legs_[t];
    if (leg.cursor != nullptr) {
      // Exact: the live cursor knows its position; a demoted leg's
      // remainder was frozen at demotion time.
      cand.raw_entries = t == current ? current_remaining : leg.cached_remaining_entries;
      double s_lpr = leg.driving_monitor.scanned_total() > 0
                         ? leg.driving_monitor.ResidualSel(1.0)
                         : (plan_->access[t].driving.est_slpi > 0
                                ? plan_->est_local_sel[t] /
                                      plan_->access[t].driving.est_slpi
                                : 1.0);
      cand.flow = cand.raw_entries * std::min(1.0, s_lpr);
    } else {
      // Never scanned: the optimizer's S_LPI (Sec 4.3.3) — possibly badly
      // wrong under skew, which is the paper's Template 4 degradation.
      double card = static_cast<double>(leg.entry->StatsCardinality());
      cand.raw_entries = plan_->access[t].driving.est_slpi * card;
      cand.flow = in.tables[t].local_sel * card;
    }
  }

  PolicySnapshot snapshot;
  snapshot.point = DecisionPoint::kDrivingBoundary;
  snapshot.position = 1;
  snapshot.inputs = &in;
  snapshot.order = &order_;
  snapshot.candidates = &candidates;
  snapshot.driving_rows_produced = stats_.driving_rows_produced;
  snapshot.rows_out = stats_.rows_out;
  snapshot.work_units = wc_.total();
  snapshot.epoch = policy_->stats().decisions;
  PolicyDecision decision = policy_->Decide(snapshot);
  if (!decision.changed()) return;
  if (decision.action == PolicyDecision::Action::kInnerReorder) {
    // Exploration policies may pick a same-driving-leg order here; the whole
    // pipeline is depleted between driving rows, so adopting the tail at
    // position 1 is an ordinary inner reorder (invariant I4 holds).
    ++stats_.inner_reorders;
    driving_backoff_.OnReorder();
    std::vector<size_t> order_before = order_;
    order_ = decision.new_order;
    RefreshPositions(1);
    std::string msg =
        StrCat("inner reorder at position 1 after ", stats_.driving_rows_produced,
               " driving rows (policy ", policy_->name(), "); order");
    for (size_t t : order_) msg += " " + plan_->query.tables[t].alias;
    stats_.events.push_back(std::move(msg));
    if (observer_ != nullptr) {
      AdaptationEvent ev;
      ev.kind = AdaptationEvent::Kind::kInnerReorder;
      ev.position = 1;
      ev.order_before = std::move(order_before);
      ev.order_after = order_;
      ev.driving_rows_produced = stats_.driving_rows_produced;
      observer_->OnAdaptation(ev);
    }
    return;
  }
  ++stats_.driving_switches;
  driving_backoff_.OnReorder();
  std::vector<size_t> order_before = order_;
  {
    std::string msg = StrCat("driving switch after ", stats_.driving_rows_produced,
                             " rows: ", plan_->query.tables[current].alias, " -> ",
                             plan_->query.tables[decision.new_order[0]].alias,
                             " (est remaining ", FormatDouble(decision.est_current, 0),
                             " -> ", FormatDouble(decision.est_best, 0), " wu); order");
    for (size_t t : decision.new_order) {
      msg += " " + plan_->query.tables[t].alias;
    }
    stats_.events.push_back(std::move(msg));
  }

  // Demote the old driving leg: record the processed prefix for its
  // positional predicate (Sec 4.2). The cursor is kept for re-promotion.
  LegRt& old_leg = legs_[current];
  old_leg.prefix = old_leg.cursor->CurrentPosition();
  old_leg.cached_remaining_entries = RemainingEntries(current);
  old_leg.cached_remaining_fraction =
      old_leg.total_raw_entries > 0
          ? std::min(1.0, old_leg.cached_remaining_entries / old_leg.total_raw_entries)
          : 1.0;
  // The fresh positional predicate changes this leg's probe results from
  // now on: move to a new epoch so no earlier shared-cache entry can be
  // replayed (ProbeLeg also bypasses the cache while a prefix is live — the
  // epoch makes staleness impossible rather than merely avoided).
  ++old_leg.demotion_epoch;

  // Promote the new driving leg; a previously demoted leg resumes its
  // original cursor (which already sits past its prefix).
  size_t next = decision.new_order[0];
  if (legs_[next].cursor == nullptr) {
    Status st = CreateDrivingCursor(next);
    assert(st.ok());
    (void)st;
  }
  order_ = std::move(decision.new_order);
  RefreshPositions(1);

  if (observer_ != nullptr) {
    AdaptationEvent ev;
    ev.kind = AdaptationEvent::Kind::kDrivingSwitch;
    ev.position = 0;
    ev.order_before = std::move(order_before);
    ev.order_after = order_;
    ev.driving_rows_produced = stats_.driving_rows_produced;
    ev.demoted_table = current;
    ev.demoted_prefix = old_leg.prefix;
    observer_->OnAdaptation(ev);
  }
}

void PipelineExecutor::InnerCheck(size_t level) {
  LegRt& checking_leg = legs_[order_[level]];
  checking_leg.incoming_since_check = 0;
  checking_leg.check_backoff.OnUnproductiveCheck();
  ++stats_.inner_checks;
  CostInputs in = BuildRuntimeCostInputs(kInnerMinSamples);
  PolicySnapshot snapshot;
  snapshot.point = DecisionPoint::kInnerDepleted;
  snapshot.position = level;
  snapshot.inputs = &in;
  snapshot.order = &order_;
  snapshot.driving_rows_produced = stats_.driving_rows_produced;
  snapshot.rows_out = stats_.rows_out;
  snapshot.work_units = wc_.total();
  snapshot.epoch = policy_->stats().decisions;
  PolicyDecision decision = policy_->Decide(snapshot);
  if (!decision.changed()) return;
  ++stats_.inner_reorders;
  checking_leg.check_backoff.OnReorder();
  std::vector<size_t> order_before = order_;
  order_ = std::move(decision.new_order);
  RefreshPositions(level);
  if (observer_ != nullptr) {
    AdaptationEvent ev;
    ev.kind = AdaptationEvent::Kind::kInnerReorder;
    ev.position = level;
    ev.order_before = std::move(order_before);
    ev.order_after = order_;
    ev.driving_rows_produced = stats_.driving_rows_produced;
    observer_->OnAdaptation(ev);
  }
  {
    std::string msg =
        StrCat("inner reorder at position ", level, " after ",
               stats_.driving_rows_produced, " driving rows; order");
    uint64_t mask = 0;
    for (size_t i = 0; i < static_cast<size_t>(level); ++i) {
      mask |= uint64_t{1} << order_[i];
    }
    for (size_t i = 0; i < order_.size(); ++i) {
      size_t t = order_[i];
      msg += " " + plan_->query.tables[t].alias;
      if (i >= static_cast<size_t>(level)) {
        msg += StrCat("(jc=", FormatDouble(JcAt(in, t, mask), 3),
                      ",rank=", FormatDouble(Rank(JcAt(in, t, mask), PcAt(in, t, mask)), 4),
                      ")");
        mask |= uint64_t{1} << t;
      }
    }
    stats_.events.push_back(std::move(msg));
  }
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

StatusOr<ExecStats> PipelineExecutor::Execute(const RowSink& sink) {
  if (executed_) {
    return Status::Internal(
        "PipelineExecutor is single-use: Execute() was already called");
  }
  executed_ = true;
  if (policy_ == nullptr) policy_ = MakePolicy(options_);
  adapt_inners_ = policy_->adapts_inners();
  adapt_driving_ = policy_->adapts_driving();
  AJR_RETURN_IF_ERROR(InitLegs());
  order_ = plan_->initial_order;
  driving_backoff_ = CheckBackoff(options_.check_frequency, options_.check_backoff);
  stats_ = ExecStats();
  stats_.initial_order = order_;
  AJR_RETURN_IF_ERROR(CreateDrivingCursor(order_[0]));
  RefreshPositions(1);

  const auto start = std::chrono::steady_clock::now();
  const size_t k = order_.size();
  int level = 0;
  while (level >= 0) {
    if (level == 0) {
      // The whole pipeline is depleted here (between driving rows): the
      // cheapest safe point for the full cancel + deadline poll.
      if (cancel_token_ != nullptr) {
        StopReason stop = cancel_token_->Check();
        if (stop != StopReason::kNone) return CancellationToken::ToStatus(stop);
      }
      if (adapt_driving_ && k > 1 &&
          produced_since_check_ >= driving_backoff_.interval()) {
        DrivingCheck();
      }
      if (!NextDrivingRow()) break;
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
        if (stop != StopReason::kNone) return CancellationToken::ToStatus(stop);
      }
      if (adapt_inners_ && static_cast<size_t>(level) + 1 < k &&
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
  {
    const PolicyStats& ps = policy_->stats();
    stats_.policy_decisions = ps.decisions;
    stats_.policy_reorders = ps.inner_reorders;
    stats_.policy_switches = ps.driving_switches;
    stats_.policy_regret_x1000 =
        static_cast<uint64_t>(ps.cumulative_regret * 1000.0 + 0.5);
  }
  if (metrics_ != nullptr) {
    if (shared_cache_ != nullptr) {
      metrics_->GetCounter("exec.probe_cache_shared_hits")
          ->Add(stats_.probe_cache_shared_hits);
      metrics_->GetCounter("exec.probe_cache_shared_misses")
          ->Add(stats_.probe_cache_shared_misses);
      metrics_->GetCounter("exec.probe_cache_shared_stripe_conflicts")
          ->Add(stats_.probe_cache_shared_conflicts);
    }
    metrics_->GetCounter("exec.policy_decisions")->Add(stats_.policy_decisions);
    metrics_->GetCounter("exec.policy_reorders")->Add(stats_.policy_reorders);
    metrics_->GetCounter("exec.policy_switches")->Add(stats_.policy_switches);
    metrics_->GetCounter("exec.policy_regret_x1000")->Add(stats_.policy_regret_x1000);
  }
  return stats_;
}

}  // namespace ajr
