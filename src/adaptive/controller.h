// Adaptive reordering decisions (Sec 4.1, 4.2).
//
// The executor calls these pure decision functions at the paper's strategic
// points: CheckInnerReorder when a pipeline segment reaches its depleted
// state (Fig 2), CheckDrivingSwitch after every batch of c driving rows
// (Fig 3). Inputs are CostInputs assembled from the run-time monitors, so
// the decisions use measured selectivities where available and optimizer
// estimates elsewhere.

#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <vector>

#include "adaptive/monitor.h"
#include "optimize/cost_model.h"
#include "storage/bplus_tree.h"

namespace ajr {

/// Which AdaptationPolicy (adaptive/policy.h) drives reorder/switch
/// decisions. kRank is the paper's rank-based procedures; kRegret is
/// SkinnerDB-style UCB1 exploration; kStatic never adapts.
enum class PolicyKind {
  kRank,
  kRegret,
  kStatic,
};

/// Run-time adaptation knobs (paper defaults: c = 10, w = 1000).
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
  /// Averaging across the window (Sec 4.3.5).
  AveragingMode averaging = AveragingMode::kSimple;
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
  /// Exponential back-off on unproductive checks: after a check that
  /// decides "no change", the next check happens after 2x the interval (up
  /// to kMaxBackoff * check_frequency); any reorder resets the interval to
  /// check_frequency. The paper uses a fixed c throughout — set false for
  /// strict paper behaviour — but on a memory-speed engine fixed-c checking
  /// costs far more (relatively) than on the paper's I/O-bound system, and
  /// back-off restores the paper's sub-1% overhead regime (Sec 5.4).
  bool check_backoff = true;
  /// Which decision policy the executor instantiates (adaptive/policy.h).
  /// kStatic forces both reorder capabilities off regardless of the
  /// reorder_* flags above; kRank and kRegret honor them.
  PolicyKind policy = PolicyKind::kRank;
  /// Unused by the engine (the B+-tree is the only index); perfbench reads it.
  IndexBackend index_backend = IndexBackend::kBTree;
  static constexpr uint64_t kMaxBackoff = 16;
};

/// Exponential back-off schedule for one reorder-check interval (the
/// AdaptiveOptions::check_backoff policy, factored out so the executor's
/// driving and per-leg inner intervals share one tested implementation).
///
/// The interval starts at `base` (the check frequency c). Every
/// unproductive check doubles it, capped at base * kMaxBackoff; any reorder
/// resets it to base. With back-off disabled the interval is constant.
class CheckBackoff {
 public:
  CheckBackoff() : CheckBackoff(10, true) {}
  CheckBackoff(uint64_t base, bool enabled)
      : base_(base == 0 ? 1 : base), interval_(base_), enabled_(enabled) {}

  /// Rows to let pass before the next check.
  uint64_t interval() const { return interval_; }

  /// A check ran and decided "no change": double the interval (capped).
  void OnUnproductiveCheck() {
    if (enabled_) {
      interval_ = std::min(interval_ * 2, base_ * AdaptiveOptions::kMaxBackoff);
    }
  }

  /// A check reordered: back to the base frequency.
  void OnReorder() { interval_ = base_; }

 private:
  uint64_t base_;
  uint64_t interval_;
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

}  // namespace ajr
