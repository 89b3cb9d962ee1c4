#include "exec/adaptive_coordinator.h"

#include <algorithm>
#include <cassert>
#include <optional>

#include "common/exec_stats.h"

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

DrivingScans::DrivingScans(const PipelinePlan* plan, bool record_positions)
    : plan_(plan),
      record_positions_(record_positions),
      legs_(plan->query.tables.size()) {}

void DrivingScans::OpenDrivingScan(size_t table) {
  const DrivingAccess& access = plan_->access[table].driving;
  Leg& leg = legs_[table];
  if (access.index != nullptr) {
    leg.cursor = std::make_unique<IndexScanCursor>(access.index->tree.get(),
                                                   access.ranges);
    leg.prefix_col = access.index->column_idx;
  } else {
    leg.cursor = std::make_unique<TableScanCursor>(&plan_->entries[table]->table());
  }
  leg.total_entries = static_cast<double>(leg.cursor->total_entries());
}

void DrivingScans::Promote(size_t table) {
  if (legs_[table].cursor == nullptr) OpenDrivingScan(table);
  current_ = table;
  dispensed_this_promotion_ = 0;
}

bool DrivingScans::Next(WorkCounter* wc, Rid* rid) {
  assert(current_ != SIZE_MAX && "Next before the first Promote");
  Leg& leg = legs_[current_];
  if (leg.exhausted) return false;
  if (!leg.cursor->Next(wc, rid)) {
    leg.exhausted = true;
    return false;
  }
  ++leg.dispensed;
  ++dispensed_this_promotion_;
  return true;
}

bool DrivingScans::Fill(ParallelMorsel* morsel, size_t max_entries, WorkCounter* wc) {
  morsel->rids.clear();
  morsel->positions.clear();
  Rid rid;
  while (morsel->rids.size() < max_entries && Next(wc, &rid)) {
    morsel->rids.push_back(rid);
    if (record_positions_) morsel->positions.push_back(position());
  }
  return !morsel->rids.empty();
}

void DrivingScans::Demote(Demotion* demotion) const {
  const Leg& leg = legs_[current_];
  std::optional<ScanPosition> prefix;
  if (dispensed_this_promotion_ > 0) prefix = position();
  demotion->Record(prefix, leg.prefix_col, leg.total_entries,
                   static_cast<double>(leg.dispensed));
}

AdaptiveCoordinator::AdaptiveCoordinator(const PipelinePlan* plan,
                                         const AdaptiveOptions& options,
                                         bool record_positions)
    : scans_(plan, record_positions),
      decider_(plan, options),
      order_(plan->initial_order),
      ramp_(std::max<size_t>(1, options.check_frequency), options.check_backoff,
            RampFactor(std::max<size_t>(1, options.check_frequency))) {
  const size_t n = plan->query.tables.size();
  demotions_.assign(n, Demotion());
  inner_.assign(n, LegMonitor(options.history_window));
  driving_.assign(n, DrivingMonitor(options.history_window));
  edges_.assign(plan->query.edges.size(), EdgeMonitor(options.history_window));
  scans_.Promote(order_[0]);
}

AdaptiveCoordinator::~AdaptiveCoordinator() = default;

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
      if (scans_.Fill(morsel, ramp_.interval(), &scan_wc_)) return Acquire::kMorsel;
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
        InstallSwitchLocked();
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
    // after a switch install the scans dispense from the new leg, after
    // a finish/abort the terminal state is returned.
  }
}

void AdaptiveCoordinator::GetSync(ParallelWorkerSync* sync) const {
  std::lock_guard<std::mutex> lock(mu_);
  sync->epoch = epoch_.load(std::memory_order_relaxed);
  sync->order = order_;
  sync->demotions = demotions_;
}

uint64_t AdaptiveCoordinator::morsel_budget() const {
  std::lock_guard<std::mutex> lock(mu_);
  return ramp_.interval();
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
                          (decider_.adapts_inners() || decider_.adapts_driving());
  if (can_change && RunChecksLocked()) {
    ramp_.OnReorder();
  } else {
    ramp_.OnUnproductiveCheck();
  }
}

bool AdaptiveCoordinator::RunChecksLocked() {
  // The merged monitors as the host's views; the scans know which legs
  // drove, their sizes and what they handed out.
  std::vector<LegView> views(inner_.size());
  uint64_t driving_rows = 0;
  for (size_t t = 0; t < views.size(); ++t) {
    views[t] = decider_.View(t, inner_[t], driving_[t], demotions_[t],
                             scans_.ever_promoted(t), scans_.total_entries(t));
    driving_rows += driving_[t].produced_total();
  }
  bool reordered = false;
  if (decider_.adapts_inners() && order_.size() > 2) {
    auto order = decider_.CheckInner(views, edges_, 1, driving_rows, order_);
    if (order.has_value()) {
      order_ = std::move(*order);
      epoch_.fetch_add(1, std::memory_order_release);
      reordered = true;
    }
  }
  if (decider_.adapts_driving()) {
    const size_t current = order_[0];
    views[current].remaining_entries =
        EntriesLeft(views[current].total_entries, scans_.dispensed(current));
    auto order = decider_.CheckDriving(views, edges_, order_, driving_rows);
    if (order.has_value()) {
      pending_switch_ = std::move(*order);
      state_ = State::kDrainingSwitch;
      reordered = true;
    }
  }
  return reordered;
}

void AdaptiveCoordinator::InstallSwitchLocked() {
  const size_t current = order_[0];

  // Demote the old driving leg at the scan position: every entry any
  // worker processed was dispensed, and everything dispensed is at or
  // before that position — so the positional predicate excludes every
  // emitted combination and loses nothing behind it. When this promotion
  // dispensed nothing, any earlier prefix stays valid unchanged.
  scans_.Demote(&demotions_[current]);
  scans_.Promote(pending_switch_[0]);
  order_ = std::move(pending_switch_);
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
  decider_.FinishStats(stats);
  stats->final_order = order_;
  stats->work_units += scan_wc_.total();
}

}  // namespace ajr
