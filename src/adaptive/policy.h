// AdaptationPolicy: the pluggable reordering brain of the adaptive
// executor (DESIGN.md §12).
//
// A run consults its policy through one DecisionHost (decision_host.h). At
// each decision point (a depleted state: a segment depletion for inner
// reorders, a driving-row boundary for driving switches) the host builds a
// read-only PolicySnapshot from the monitor statistics and receives back a
// PolicyDecision: keep the current order, reorder the inner tail, or switch
// the driving leg. The serial executor and the parallel coordinator keep
// every *mechanic* and adopt decisions exactly where the paper adopts them,
// so invariants I1–I5 and the epoch/barrier protocol are policy-independent.
//
// Thread-safety contract: a policy instance is owned by exactly one
// DecisionHost: the serial executor's (single-threaded) or the parallel
// coordinator's, which calls it only under the coordinator mutex (workers
// never see it). Policies therefore need no internal locking.
//
// RankPolicy is the engine's only policy: the paper's procedures
// (CheckInnerReorder Fig 2, CheckDrivingSwitch Fig 3), moved not rewritten,
// so its decisions are bit-identical to the pre-policy executor. The static
// baseline is both AdaptiveOptions::reorder_* flags off. The interface stays
// as a seam for tests and for decorators that time Decide().

#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "adaptive/controller.h"
#include "optimize/cost_model.h"

namespace ajr {

/// Which depleted state a decision is requested at.
enum class DecisionPoint {
  /// Segment [position..k] just depleted (Fig 2's moment): the policy may
  /// reorder order[position..] but must keep the prefix — including the
  /// driving leg — fixed.
  kInnerDepleted,
  /// The whole pipeline is depleted, between driving rows (Fig 3's
  /// moment): the policy may only keep the order or switch the driving
  /// leg.
  kDrivingBoundary,
};

/// Read-only view of the host's run-time state at one decision point.
/// Pointers borrow host-owned storage and are valid only for the duration
/// of the Decide() call.
struct PolicySnapshot {
  DecisionPoint point = DecisionPoint::kDrivingBoundary;
  /// First reorderable pipeline position (>= 1; meaningful for
  /// kInnerDepleted, always 1 at a driving boundary).
  size_t position = 1;
  /// Merged monitor statistics (measured selectivities where warm, the
  /// optimizer's estimates elsewhere), demoted legs already scaled to
  /// their unprocessed remainder.
  const CostInputs* inputs = nullptr;
  /// Current pipeline order; order[0] is the driving leg.
  const std::vector<size_t>* order = nullptr;
  /// Per-table driving candidates (remaining scan entries and flow).
  /// Non-null only at kDrivingBoundary.
  const std::vector<DrivingCandidate>* candidates = nullptr;
};

/// What the host should do at this depleted state.
struct PolicyDecision {
  /// Full pipeline order to adopt; empty to keep the current order. At
  /// kInnerDepleted the prefix [0..snapshot.position) is unchanged; at
  /// kDrivingBoundary new_order[0] is the new driving leg.
  std::vector<size_t> new_order;
  /// Estimated remaining cost of the current / chosen plan (work units);
  /// set for a driving switch.
  double est_current = 0;
  double est_best = 0;

  bool changed() const { return !new_order.empty(); }
};

/// Lifetime counters a policy maintains across decisions. The DecisionHost
/// counts checks, reorders and switches itself (ExecStats).
struct PolicyStats {
  uint64_t decisions = 0;  ///< Decide() calls
};

/// The decision interface. See the file comment for the ownership and
/// thread-safety contract.
class AdaptationPolicy {
 public:
  virtual ~AdaptationPolicy() = default;

  virtual const char* name() const = 0;

  /// Capability gates, checked by the host *before* paying for snapshot
  /// assembly: a host never calls Decide() at a decision point the policy
  /// does not adapt. Both false = fully static execution (no checks, no
  /// monitors consulted).
  virtual bool adapts_inners() const = 0;
  virtual bool adapts_driving() const = 0;

  /// One decision. The returned order must be a permutation of
  /// *snapshot.order honoring the point's prefix constraint; the host
  /// adopts it at the current depleted state.
  virtual PolicyDecision Decide(const PolicySnapshot& snapshot) = 0;

  const PolicyStats& stats() const { return stats_; }

 protected:
  PolicyStats stats_;
};

/// The paper's rank-based procedures behind the policy interface. Honors
/// AdaptiveOptions::reorder_inners / reorder_driving, and produces exactly
/// the decisions the pre-policy executor produced (CheckInnerReorder /
/// CheckDrivingSwitch over the same snapshot inputs).
class RankPolicy : public AdaptationPolicy {
 public:
  explicit RankPolicy(const AdaptiveOptions& options) : options_(options) {}
  const char* name() const override { return "rank"; }
  bool adapts_inners() const override { return options_.reorder_inners; }
  bool adapts_driving() const override { return options_.reorder_driving; }
  PolicyDecision Decide(const PolicySnapshot& snapshot) override;

 private:
  AdaptiveOptions options_;
};

/// Instantiates the engine's policy: a RankPolicy over `options`.
std::unique_ptr<AdaptationPolicy> MakePolicy(const AdaptiveOptions& options);

}  // namespace ajr
