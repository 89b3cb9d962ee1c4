// Adaptive reordering decisions (Sec 4.1, 4.2).
//
// The executor calls these pure decision functions at the paper's strategic
// points: CheckInnerReorder when a pipeline segment reaches its depleted
// state (Fig 2), CheckDrivingSwitch after every batch of c driving rows
// (Fig 3). Inputs are CostInputs the DecisionHost (decision_host.h)
// assembles from the run-time monitors by BuildInnerCheckInputs /
// BuildDrivingCheckInputs, so the decisions use measured selectivities
// where available and optimizer estimates elsewhere.

#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <vector>

#include "adaptive/monitor.h"
#include "optimize/cost_model.h"
#include "optimize/planner.h"
#include "storage/bplus_tree.h"

namespace ajr {

/// Run-time adaptation knobs (paper defaults: c = 10, w = 1000). Both
/// reorder_* flags off is the static baseline: the optimizer's order runs
/// unchanged and no check fires.
struct AdaptiveOptions {
  /// Enable inner-leg reordering (Fig 2 / Fig 8 experiments).
  bool reorder_inners = true;
  /// Enable driving-leg switching (Fig 3 / Fig 9 experiments).
  bool reorder_driving = true;
  /// Check frequency "c": reorder checks fire every c incoming rows (inner)
  /// or every c produced rows (driving).
  size_t check_frequency = 10;
  /// History window "w": observations kept per monitor.
  size_t history_window = 1000;
  /// A driving switch requires the current plan's remaining cost to exceed
  /// the candidate's by this factor (thrash guard; the paper relies on
  /// window smoothing alone, so 1.0 reproduces the paper's behaviour and
  /// the default adds a mild hysteresis).
  double switch_benefit_threshold = 1.15;
  /// Minimum candidate-pair mass before a monitored edge selectivity
  /// overrides the optimizer estimate.
  double min_edge_pairs = 8.0;
  /// Minimum incoming rows observed at a leg before its monitored local
  /// selectivity overrides the optimizer estimate (a 5%-selective predicate
  /// measured over 10 rows reads 0 more often than not — cold monitors must
  /// not make candidate plans look free).
  uint64_t min_leg_samples = 16;
  /// An inner reorder is applied only if the rank-ordered tail is estimated
  /// to cost at least this fraction less than the current tail (suppresses
  /// lateral flip-flops between near-equal orders).
  double inner_benefit_epsilon = 0.05;
  /// Exponential back-off of the check intervals: after a check the next
  /// one happens after 2x the interval (up to kMaxBackoff *
  /// check_frequency). An inner reorder resets its leg's interval to
  /// check_frequency. A driving switch does not reset the driving interval,
  /// so serial driving checks fall at 10, 30, 70, 150, 310 produced rows
  /// (c = 10), then every 160, whatever they decide: a newly promoted leg is
  /// judged on more than its first c rows. The parallel coordinator's morsel
  /// ramp still resets on both kinds of change (exec/adaptive_coordinator.h).
  /// The paper uses a fixed c throughout — set false for strict paper
  /// behaviour — but on a memory-speed engine fixed-c checking costs far
  /// more (relatively) than on the paper's I/O-bound system, and back-off
  /// restores the paper's sub-1% overhead regime (Sec 5.4).
  bool check_backoff = true;
  /// Unused by the engine (the B+-tree is the only index); perfbench reads it.
  IndexBackend index_backend = IndexBackend::kBTree;
  static constexpr uint64_t kMaxBackoff = 16;
};

/// Exponential back-off schedule for one reorder-check interval (the
/// AdaptiveOptions::check_backoff policy, factored out so the executor's
/// driving and per-leg inner intervals share one tested implementation).
///
/// The interval starts at `base` (the check frequency c). Every
/// unproductive check doubles it, capped at base * max_factor (kMaxBackoff
/// by default); OnReorder resets it to base. The executor resets an inner
/// leg's interval after that leg's reorder but never the driving interval,
/// so a driving switch counts as an ordinary check. With back-off disabled
/// the interval is constant. The parallel coordinator reuses it as its
/// morsel ramp, reset by any reorder or switch (exec/adaptive_coordinator.h).
class CheckBackoff {
 public:
  CheckBackoff() : CheckBackoff(10, true) {}
  CheckBackoff(uint64_t base, bool enabled,
               uint64_t max_factor = AdaptiveOptions::kMaxBackoff)
      : base_(base == 0 ? 1 : base),
        interval_(base_),
        cap_(base_ * std::max<uint64_t>(1, max_factor)),
        enabled_(enabled) {}

  /// Rows to let pass before the next check.
  uint64_t interval() const { return interval_; }

  /// A check ran and decided "no change": double the interval (capped).
  void OnUnproductiveCheck() {
    if (enabled_) {
      interval_ = std::min(interval_ * 2, cap_);
    }
  }

  /// A check reordered: back to the base frequency.
  void OnReorder() { interval_ = base_; }

 private:
  uint64_t base_;
  uint64_t interval_;
  uint64_t cap_;
  bool enabled_;
};

/// Fig 2: checks whether legs order[from..] are in ascending-rank order
/// given the prefix; if not — and the rank order is estimated to be at
/// least `benefit_epsilon` cheaper — returns the replacement tail.
std::optional<std::vector<size_t>> CheckInnerReorder(
    const CostInputs& in, const std::vector<size_t>& order, size_t from,
    double benefit_epsilon = 0.0);

/// One candidate driving leg for CheckDrivingSwitch.
struct DrivingCandidate {
  size_t table = 0;
  /// Index entries the (remaining) scan would touch. Exact for the current
  /// driving leg and for legs that drove before (their cursors know their
  /// position); the optimizer's S_LPI * C(T) for never-scanned legs
  /// (Sec 4.3.3: the initial S_LPI comes from the optimizer) — the source
  /// of the paper's Template 4 degradation.
  double raw_entries = 0;
  /// Rows the (remaining) scan would feed into the pipeline.
  double flow = 0;
};

/// Outcome of a driving-switch check.
struct DrivingSwitchDecision {
  std::vector<size_t> new_order;  ///< full order; new driving first
  double est_current = 0;         ///< remaining cost of the current plan
  double est_best = 0;            ///< remaining cost of the chosen plan
};

/// Fig 3 steps 2-4: costs the remaining work of the current plan and of a
/// plan driven by each candidate (inners greedy-rank-ordered); returns a
/// decision when a candidate beats the current plan by the threshold.
/// `candidates[i]` describes query table i; `candidates[order[0]]` is the
/// current driving leg.
std::optional<DrivingSwitchDecision> CheckDrivingSwitch(
    const CostInputs& in, const std::vector<size_t>& order,
    const std::vector<DrivingCandidate>& candidates, const AdaptiveOptions& options);

/// Entries a driving scan has left: its total minus the entries it already
/// consumed (scanned by the serial executor, dispensed by the morsel
/// driver). Exact because driving ranges are normalized to be disjoint and
/// sorted, so the scan visits every counted entry once.
inline double EntriesLeft(double total, double consumed) {
  return std::max(0.0, total - consumed);
}

/// One query table's run-time state as a decision host sees it: the inputs
/// the Eq 1 / Fig 3 builders below read. Pointers borrow host-owned
/// monitors for the duration of one build.
struct LegView {
  const LegMonitor* inner = nullptr;
  const DrivingMonitor* driving = nullptr;
  /// Tallest probe-index height (Eq 1's PC input).
  double index_height = 3;
  /// Unprocessed fraction behind a demoted leg's positional predicate;
  /// 1 for a leg that was never demoted.
  double demoted_fraction = 1.0;
  /// The leg drives or drove before: its scan position is known, so the
  /// entry counts below are exact.
  bool ever_driven = false;
  /// Entries the leg's full driving scan covers (meaningful once driven).
  double total_entries = 0;
  /// Entries its scan has left: live for the current driving leg, frozen
  /// at demotion time for a demoted one.
  double remaining_entries = 0;
};

/// The inputs ChooseProbeEdge reads: each table's cardinality and each
/// edge's monitored selectivity. Local selectivities and index heights
/// keep their defaults.
CostInputs BuildProbeEdgeInputs(const PipelinePlan& plan,
                                const std::vector<EdgeMonitor>& edges,
                                const AdaptiveOptions& options);

/// Eq 1 inputs for an inner-reorder check (Fig 2): monitored selectivities
/// over a small sample floor — inner reorders are cheap and reversible, so
/// young monitors may act — with demoted legs scaled to their remainder.
/// `legs` is parallel to plan.query.tables, `edges` to plan.query.edges.
CostInputs BuildInnerCheckInputs(const PipelinePlan& plan,
                                 const std::vector<LegView>& legs,
                                 const std::vector<EdgeMonitor>& edges,
                                 const AdaptiveOptions& options);

/// Eq 1 inputs and Fig 3 candidates for a driving-switch check.
struct DrivingCheckInputs {
  CostInputs inputs;
  std::vector<DrivingCandidate> candidates;  ///< per query table
};

/// Builds the driving-switch check's inputs with current driving leg
/// `current`: monitored local selectivities need options.min_leg_samples
/// (a cold monitor must not make a candidate plan look free), the current
/// leg is scaled by its anticipated demotion, and each candidate's
/// remaining entries are exact for legs that drove and the optimizer's
/// S_LPI * C(T) for the rest.
DrivingCheckInputs BuildDrivingCheckInputs(const PipelinePlan& plan,
                                           const std::vector<LegView>& legs,
                                           const std::vector<EdgeMonitor>& edges,
                                           const AdaptiveOptions& options,
                                           size_t current);

}  // namespace ajr
