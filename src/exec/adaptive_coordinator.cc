#include "exec/adaptive_coordinator.h"

#include <algorithm>
#include <cassert>

#include "adaptive/policy.h"
#include "common/string_util.h"
#include "exec/pipeline_executor.h"

namespace ajr {

namespace {

// Sample floor for monitored selectivities in inner-reorder decisions —
// mirrors the serial executor's kInnerMinSamples: inner reorders are cheap
// and reversible, so young merged monitors may act.
constexpr uint64_t kInnerMinSamples = 2;

}  // namespace

AdaptiveCoordinator::AdaptiveCoordinator(const PipelinePlan* plan,
                                         const AdaptiveOptions& options,
                                         DrivingSource* source,
                                         size_t fold_interval)
    : plan_(plan),
      options_(options),
      source_(source),
      fold_interval_(fold_interval > 0 ? fold_interval
                                       : std::max<size_t>(1, options.check_frequency)),
      policy_(MakePolicy(options)),
      backoff_(1, options.check_backoff) {
  const size_t n = plan_->query.tables.size();
  order_ = plan_->initial_order;
  demotions_.assign(n, ParallelDemotion());
  inner_.assign(n, LegMonitor(options_.history_window, options_.averaging));
  driving_.assign(n, DrivingMonitor(options_.history_window, options_.averaging));
  edges_.assign(plan_->query.edges.size(),
                EdgeMonitor(options_.history_window, options_.averaging));
  index_heights_.assign(n, 3.0);
  for (size_t t = 0; t < n; ++t) {
    for (const auto& idx : plan_->entries[t]->indexes()) {
      index_heights_[t] = std::max(index_heights_[t],
                                   static_cast<double>(idx->tree->height()));
    }
  }
}

AdaptiveCoordinator::~AdaptiveCoordinator() = default;

Status AdaptiveCoordinator::Init() {
  std::lock_guard<std::mutex> lock(mu_);
  return source_->Promote(order_[0]);
}

bool AdaptiveCoordinator::RegisterWorker(ParallelWorkerSync* sync) {
  std::lock_guard<std::mutex> lock(mu_);
  if (state_ == State::kDone || state_ == State::kAbort) return false;
  ++registered_;
  sync->epoch = epoch_.load(std::memory_order_relaxed);
  sync->order = order_;
  sync->demotions = demotions_;
  return true;
}

AdaptiveCoordinator::Acquire AdaptiveCoordinator::AcquireMorsel(
    ParallelMorsel* morsel) {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    if (state_ == State::kAbort) return Acquire::kAborted;
    if (state_ == State::kDone) return Acquire::kFinished;
    if (state_ == State::kRunning) {
      if (source_->Fill(morsel)) return Acquire::kMorsel;
      // The promoted scan ran dry with no switch pending: drain to finish.
      state_ = State::kDrainingEnd;
    }
    // Draining (switch pending or scan exhausted): adjustable barrier over
    // every registered worker. The last arrival acts; workers registering
    // mid-drain join the group and arrive here before doing any other work,
    // so the barrier always completes.
    ++waiting_;
    if (waiting_ == registered_) {
      waiting_ = 0;
      ++generation_;
      if (state_ == State::kDrainingSwitch) {
        InstallSwitchLocked();  // may abort; loop re-checks state
      } else if (state_ == State::kDrainingEnd) {
        state_ = State::kDone;
      }
      cv_.notify_all();
      continue;
    }
    const uint64_t arrival_generation = generation_;
    cv_.wait(lock, [&] {
      return generation_ != arrival_generation || state_ == State::kAbort;
    });
    // The leader reset `waiting_`; do not decrement. Loop re-checks state:
    // after a switch install the source dispenses from the new leg, after
    // a finish/abort the terminal state is returned.
  }
}

void AdaptiveCoordinator::GetSync(ParallelWorkerSync* sync) const {
  std::lock_guard<std::mutex> lock(mu_);
  sync->epoch = epoch_.load(std::memory_order_relaxed);
  sync->order = order_;
  sync->demotions = demotions_;
}

void AdaptiveCoordinator::Fold(const WorkerMonitorDeltas& deltas) {
  std::lock_guard<std::mutex> lock(mu_);
  if (state_ == State::kDone || state_ == State::kAbort) return;
  for (size_t t = 0; t < inner_.size(); ++t) {
    inner_[t].Absorb(deltas.inner[t]);
    driving_[t].Absorb(deltas.driving[t]);
  }
  for (size_t e = 0; e < edges_.size(); ++e) edges_[e].Absorb(deltas.edges[e]);
  merged_rows_out_ += deltas.rows_out;
  merged_work_units_ += deltas.work_units;
  ++folds_;
  // Decisions fire only while dispensing: once draining, the pending switch
  // must install before new evidence can overturn it, and at end-of-scan
  // the remaining work is zero — nothing to reoptimize.
  if (state_ != State::kRunning) return;
  if (order_.size() <= 1) return;
  if (!policy_->adapts_inners() && !policy_->adapts_driving()) return;
  if (++folds_since_check_ < backoff_.interval()) return;
  folds_since_check_ = 0;
  RunChecksLocked();
}

CostInputs AdaptiveCoordinator::BuildCostInputsLocked(
    uint64_t min_leg_samples) const {
  CostInputs in;
  in.query = &plan_->query;
  const size_t n = plan_->query.tables.size();
  in.tables.resize(n);
  for (size_t t = 0; t < n; ++t) {
    LegParams& p = in.tables[t];
    p.cardinality = static_cast<double>(plan_->entries[t]->StatsCardinality());
    p.index_height = index_heights_[t];
    p.local_sel = EffectiveLocalSel(inner_[t], driving_[t],
                                    plan_->est_local_sel[t],
                                    plan_->access[t].driving.est_slpi,
                                    min_leg_samples);
    // A demoted leg's positional predicate shrinks its effective
    // cardinality to the unprocessed remainder (same scaling as the serial
    // executor's BuildRuntimeCostInputs).
    if (demotions_[t].demoted) {
      p.local_sel *= demotions_[t].remaining_fraction;
    }
  }
  in.edge_sel.resize(plan_->query.edges.size());
  for (size_t e = 0; e < in.edge_sel.size(); ++e) {
    in.edge_sel[e] =
        edges_[e].Selectivity(plan_->est_edge_sel[e], options_.min_edge_pairs);
  }
  return in;
}

uint64_t AdaptiveCoordinator::MergedDrivingRowsLocked() const {
  uint64_t total = 0;
  for (const DrivingMonitor& m : driving_) total += m.produced_total();
  return total;
}

void AdaptiveCoordinator::RunChecksLocked() {
  bool reordered = false;
  if (policy_->adapts_inners() && order_.size() > 2) {
    ++inner_checks_;
    CostInputs in = BuildCostInputsLocked(kInnerMinSamples);
    PolicySnapshot snapshot;
    snapshot.point = DecisionPoint::kInnerDepleted;
    snapshot.position = 1;
    snapshot.inputs = &in;
    snapshot.order = &order_;
    snapshot.driving_rows_produced = MergedDrivingRowsLocked();
    snapshot.rows_out = merged_rows_out_;
    snapshot.work_units = merged_work_units_;
    snapshot.epoch = epoch_.load(std::memory_order_relaxed);
    PolicyDecision decision = policy_->Decide(snapshot);
    if (decision.action == PolicyDecision::Action::kInnerReorder) {
      ++inner_reorders_;
      order_ = std::move(decision.new_order);
      std::string msg = StrCat("parallel inner reorder after ",
                               MergedDrivingRowsLocked(), " driving rows; order");
      for (size_t t : order_) msg += " " + plan_->query.tables[t].alias;
      events_.push_back(std::move(msg));
      epoch_.fetch_add(1, std::memory_order_release);
      reordered = true;
    }
  }
  // Driving switches demote the current leg with a positional predicate;
  // when the source cannot express one (a shared-scan attachment that
  // joined mid-pass), keeping the driving leg is the only sound decision —
  // skip the check entirely rather than decide and fail at install time.
  if (policy_->adapts_driving() && source_->demotion_safe()) {
    ++driving_checks_;
    CostInputs in = BuildCostInputsLocked(options_.min_leg_samples);
    const size_t current = order_[0];
    const double current_total = source_->total_entries(current);
    const double current_remaining = std::max(
        0.0, current_total - source_->dispensed_entries(current));
    // Anticipate the demotion of the current driving leg: as an inner leg
    // its positional predicate would keep only the unprocessed remainder.
    if (current_total > 0) {
      in.tables[current].local_sel *=
          std::min(1.0, current_remaining / current_total);
    }
    std::vector<DrivingCandidate> candidates(in.tables.size());
    for (size_t t = 0; t < in.tables.size(); ++t) {
      DrivingCandidate& cand = candidates[t];
      cand.table = t;
      if (source_->ever_promoted(t)) {
        // Exact: the dispenser knows what it handed out; a demoted leg's
        // remainder was frozen at demotion time.
        cand.raw_entries = t == current ? current_remaining
                                        : demotions_[t].remaining_entries;
        double s_lpr = driving_[t].scanned_total() > 0
                           ? driving_[t].ResidualSel(1.0)
                           : (plan_->access[t].driving.est_slpi > 0
                                  ? plan_->est_local_sel[t] /
                                        plan_->access[t].driving.est_slpi
                                  : 1.0);
        cand.flow = cand.raw_entries * std::min(1.0, s_lpr);
      } else {
        // Never scanned: the optimizer's S_LPI (Sec 4.3.3).
        double card = static_cast<double>(plan_->entries[t]->StatsCardinality());
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
    snapshot.driving_rows_produced = MergedDrivingRowsLocked();
    snapshot.rows_out = merged_rows_out_;
    snapshot.work_units = merged_work_units_;
    snapshot.epoch = epoch_.load(std::memory_order_relaxed);
    PolicyDecision decision = policy_->Decide(snapshot);
    if (decision.action == PolicyDecision::Action::kDrivingSwitch) {
      DrivingSwitchDecision sw;
      sw.new_order = std::move(decision.new_order);
      sw.est_current = decision.est_current;
      sw.est_best = decision.est_best;
      pending_switch_ = std::move(sw);
      state_ = State::kDrainingSwitch;
      reordered = true;
    } else if (decision.action == PolicyDecision::Action::kInnerReorder) {
      // An exploration policy kept the driving leg but chose a different
      // tail: an ordinary inner reorder, published immediately (workers
      // adopt it at their next depleted state).
      ++inner_reorders_;
      order_ = std::move(decision.new_order);
      std::string msg = StrCat("parallel inner reorder after ",
                               MergedDrivingRowsLocked(), " driving rows; order");
      for (size_t t : order_) msg += " " + plan_->query.tables[t].alias;
      events_.push_back(std::move(msg));
      epoch_.fetch_add(1, std::memory_order_release);
      reordered = true;
    }
  }
  if (reordered) {
    backoff_.OnReorder();
  } else {
    backoff_.OnUnproductiveCheck();
  }
}

void AdaptiveCoordinator::InstallSwitchLocked() {
  assert(pending_switch_.has_value());
  DrivingSwitchDecision decision = std::move(*pending_switch_);
  pending_switch_.reset();
  const size_t current = order_[0];

  // Demote the old driving leg at the global high-water mark: every entry
  // any worker processed was dispensed, and everything dispensed is at or
  // before the high-water position — so the positional predicate excludes
  // every emitted combination and loses nothing behind it. When this
  // promotion dispensed nothing, any earlier prefix stays valid unchanged.
  ParallelDemotion& dem = demotions_[current];
  std::optional<ScanPosition> high_water = source_->high_water();
  if (high_water.has_value()) {
    dem.demoted = true;
    ++dem.seq;
    dem.prefix = *high_water;
    dem.prefix_col = source_->prefix_col(current);
  }
  const double total = source_->total_entries(current);
  const double remaining =
      std::max(0.0, total - source_->dispensed_entries(current));
  dem.remaining_entries = remaining;
  dem.remaining_fraction =
      total > 0 ? std::min(1.0, remaining / total) : 1.0;

  Status promoted = source_->Promote(decision.new_order[0]);
  if (!promoted.ok()) {
    AbortLocked(std::move(promoted));
    return;
  }
  ++driving_switches_;
  {
    std::string msg = StrCat(
        "parallel driving switch after ", MergedDrivingRowsLocked(),
        " rows: ", plan_->query.tables[current].alias, " -> ",
        plan_->query.tables[decision.new_order[0]].alias, " (est remaining ",
        FormatDouble(decision.est_current, 0), " -> ",
        FormatDouble(decision.est_best, 0), " wu); order");
    for (size_t t : decision.new_order) {
      msg += " " + plan_->query.tables[t].alias;
    }
    events_.push_back(std::move(msg));
  }
  order_ = std::move(decision.new_order);
  epoch_.fetch_add(1, std::memory_order_release);
  state_ = State::kRunning;
}

void AdaptiveCoordinator::Abort(Status status) {
  std::lock_guard<std::mutex> lock(mu_);
  AbortLocked(std::move(status));
}

void AdaptiveCoordinator::AbortLocked(Status status) {
  if (state_ == State::kDone || state_ == State::kAbort) return;
  state_ = State::kAbort;
  abort_status_ = std::move(status);
  ++generation_;  // release any parked barrier waiters
  cv_.notify_all();
}

bool AdaptiveCoordinator::aborted() const {
  std::lock_guard<std::mutex> lock(mu_);
  return state_ == State::kAbort;
}

Status AdaptiveCoordinator::abort_status() const {
  std::lock_guard<std::mutex> lock(mu_);
  return state_ == State::kAbort ? abort_status_
                                 : Status::Internal("coordinator not aborted");
}

void AdaptiveCoordinator::FinishStats(ExecStats* stats) const {
  std::lock_guard<std::mutex> lock(mu_);
  stats->inner_checks += inner_checks_;
  stats->inner_reorders += inner_reorders_;
  stats->driving_checks += driving_checks_;
  stats->driving_switches += driving_switches_;
  stats->final_order = order_;
  stats->events.insert(stats->events.end(), events_.begin(), events_.end());
  stats->work_units += source_->scan_work_units();
  const PolicyStats& ps = policy_->stats();
  stats->policy_decisions += ps.decisions;
  stats->policy_reorders += ps.inner_reorders;
  stats->policy_switches += ps.driving_switches;
  stats->policy_regret_x1000 +=
      static_cast<uint64_t>(ps.cumulative_regret * 1000.0 + 0.5);
}

}  // namespace ajr
