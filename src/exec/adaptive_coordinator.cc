#include "exec/adaptive_coordinator.h"

#include <algorithm>
#include <cassert>

#include "adaptive/policy.h"
#include "common/string_util.h"
#include "exec/pipeline_executor.h"

namespace ajr {

namespace {

/// The largest power of two f with base * f <= kMaxMorselEntries (at least
/// 1): the ramp's sizes are c * 2^k up to that cap.
uint64_t RampFactor(uint64_t base) {
  uint64_t f = 1;
  while (base * f * 2 <= AdaptiveCoordinator::kMaxMorselEntries) f *= 2;
  return f;
}

}  // namespace

DrivingScan OpenDrivingScan(const PipelinePlan& plan, size_t table) {
  const DrivingAccess& access = plan.access[table].driving;
  const HeapTable& heap = plan.entries[table]->table();
  DrivingScan scan;
  if (access.index != nullptr) {
    scan.cursor = std::make_unique<IndexScanCursor>(access.index->tree.get(),
                                                    access.ranges);
    scan.total_entries = static_cast<double>(
        CountRangeEntries(*access.index->tree, access.ranges));
    scan.prefix_col = access.index->column_idx;
  } else {
    scan.cursor = std::make_unique<TableScanCursor>(&heap);
    scan.total_entries = static_cast<double>(heap.num_rows());
  }
  return scan;
}

void Demotion::Record(const std::optional<ScanPosition>& at, size_t col,
                      double total, double consumed) {
  if (at.has_value()) {
    demoted = true;
    ++seq;
    prefix = *at;
    prefix_col = col;
  }
  remaining_entries = EntriesLeft(total, consumed);
  remaining_fraction =
      total > 0 ? std::min(1.0, remaining_entries / total) : 1.0;
}

AdaptiveCoordinator::AdaptiveCoordinator(const PipelinePlan* plan,
                                         const AdaptiveOptions& options,
                                         DrivingSource* source)
    : plan_(plan),
      options_(options),
      source_(source),
      policy_(MakePolicy(options)),
      ramp_(std::max<size_t>(1, options.check_frequency), options.check_backoff,
            RampFactor(std::max<size_t>(1, options.check_frequency))) {
  const size_t n = plan_->query.tables.size();
  order_ = plan_->initial_order;
  demotions_.assign(n, Demotion());
  inner_.assign(n, LegMonitor(options_.history_window, options_.averaging));
  driving_.assign(n, DrivingMonitor(options_.history_window, options_.averaging));
  edges_.assign(plan_->query.edges.size(),
                EdgeMonitor(options_.history_window, options_.averaging));
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
      if (source_->Fill(morsel, ramp_.interval())) return Acquire::kMorsel;
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
  // Decisions fire only while dispensing: once draining, the pending switch
  // must install before new evidence can overturn it, and at end-of-scan
  // the remaining work is zero — nothing to reoptimize. A fold that cannot
  // change the order grows the ramp like one whose checks changed nothing.
  const bool can_change = state_ == State::kRunning && order_.size() > 1 &&
                          (policy_->adapts_inners() || policy_->adapts_driving());
  if (can_change && RunChecksLocked()) {
    ramp_.OnReorder();
  } else {
    ramp_.OnUnproductiveCheck();
  }
}

std::vector<LegView> AdaptiveCoordinator::LegViewsLocked() const {
  std::vector<LegView> views(inner_.size());
  for (size_t t = 0; t < views.size(); ++t) {
    LegView& v = views[t];
    v.inner = &inner_[t];
    v.driving = &driving_[t];
    v.index_height = ProbeIndexHeight(*plan_->entries[t]);
    v.demoted_fraction =
        demotions_[t].demoted ? demotions_[t].remaining_fraction : 1.0;
    // The dispenser knows what it handed out; a demoted leg's remainder
    // was frozen at demotion time.
    v.ever_driven = source_->ever_promoted(t);
    v.total_entries = source_->total_entries(t);
    v.remaining_entries = demotions_[t].remaining_entries;
  }
  return views;
}

uint64_t AdaptiveCoordinator::MergedDrivingRowsLocked() const {
  uint64_t total = 0;
  for (const DrivingMonitor& m : driving_) total += m.produced_total();
  return total;
}

bool AdaptiveCoordinator::RunChecksLocked() {
  bool reordered = false;
  if (policy_->adapts_inners() && order_.size() > 2) {
    ++inner_checks_;
    CostInputs in = BuildInnerCheckInputs(*plan_, LegViewsLocked(), edges_, options_);
    PolicySnapshot snapshot;
    snapshot.point = DecisionPoint::kInnerDepleted;
    snapshot.position = 1;
    snapshot.inputs = &in;
    snapshot.order = &order_;
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
  if (policy_->adapts_driving()) {
    ++driving_checks_;
    const size_t current = order_[0];
    std::vector<LegView> views = LegViewsLocked();
    views[current].remaining_entries = EntriesLeft(
        views[current].total_entries, source_->dispensed_entries(current));
    DrivingCheckInputs check =
        BuildDrivingCheckInputs(*plan_, views, edges_, options_, current);
    PolicySnapshot snapshot;
    snapshot.point = DecisionPoint::kDrivingBoundary;
    snapshot.position = 1;
    snapshot.inputs = &check.inputs;
    snapshot.order = &order_;
    snapshot.candidates = &check.candidates;
    PolicyDecision decision = policy_->Decide(snapshot);
    if (decision.action == PolicyDecision::Action::kDrivingSwitch) {
      DrivingSwitchDecision sw;
      sw.new_order = std::move(decision.new_order);
      sw.est_current = decision.est_current;
      sw.est_best = decision.est_best;
      pending_switch_ = std::move(sw);
      state_ = State::kDrainingSwitch;
      reordered = true;
    }
  }
  return reordered;
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
  demotions_[current].Record(source_->high_water(), source_->prefix_col(current),
                             source_->total_entries(current),
                             source_->dispensed_entries(current));

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
  // Folds that landed during the drain grew the ramp; the new driving leg
  // starts over at c entries.
  ramp_.OnReorder();
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
  stats->policy_decisions += policy_->stats().decisions;
}

}  // namespace ajr
