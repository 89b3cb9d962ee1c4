// DecisionHost: the one place a run decides (DESIGN.md §12).
//
// The paper has one decision procedure: a depleted state triggers a check,
// the check builds Eq 1 inputs from the monitors, the policy ranks the
// candidates by Eq 3, and the run reorders or switches (Sec 4.1-4.2). Serial
// and morsel-parallel runs both run it through a DecisionHost, which owns
// the AdaptationPolicy, the check, reorder, switch and decision counts, the
// event log (one format per decision kind) and the per-table Eq 1 index
// heights. The serial PipelineExecutor calls it inline with its legs'
// monitors; the AdaptiveCoordinator calls it under its mutex with the
// merged ones. Each applies a decision with its own mechanics.

#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "adaptive/controller.h"
#include "adaptive/policy.h"
#include "storage/scan_position.h"

namespace ajr {

struct ExecStats;

/// A demoted driving leg (Sec 4.2): the positional predicate over its scan
/// order and the remainder behind it, frozen at demotion (a demoted leg
/// scans nothing until it drives again). The serial executor fills it at a
/// driving switch, the coordinator at a switch install, and workers copy
/// the coordinator's whole. `seq` increments at every demotion of the
/// table, so a worker applies each demotion exactly once.
struct Demotion {
  bool demoted = false;
  uint64_t seq = 0;
  ScanPosition prefix;
  /// Column index of the prefix's key (SIZE_MAX = RID order).
  size_t prefix_col = SIZE_MAX;
  double remaining_entries = 0;
  double remaining_fraction = 1.0;

  /// Demotes at `prefix` after `consumed` of the scan's `total` entries.
  /// A nullopt prefix (the promotion consumed nothing) keeps any earlier
  /// prefix, which is still valid, and only refreshes the remainder.
  void Record(const std::optional<ScanPosition>& prefix, size_t prefix_col,
              double total, double consumed);
};

class DecisionHost {
 public:
  /// `plan` must outlive the host. The policy is `policy` when given (e.g.
  /// a decorator that times Decide()), else MakePolicy(options).
  DecisionHost(const PipelinePlan* plan, const AdaptiveOptions& options,
               std::unique_ptr<AdaptationPolicy> policy = nullptr);

  /// The policy's capability gates, checked before paying for a check.
  bool adapts_inners() const { return policy_->adapts_inners(); }
  bool adapts_driving() const { return policy_->adapts_driving(); }

  /// Query table `table`'s view for the Eq 1 input builders. Remaining
  /// entries are the frozen demotion remainder; a driving check's caller
  /// fills in the current driving leg's live one.
  LegView View(size_t table, const LegMonitor& inner, const DrivingMonitor& driving,
               const Demotion& demotion, bool ever_driven, double total_entries) const;

  /// Fig 2 at the depleted segment [position..k]: the reordered order, or
  /// nullopt to keep `order`. Counts the check, and logs a reorder.
  std::optional<std::vector<size_t>> CheckInner(const std::vector<LegView>& legs,
                                                const std::vector<EdgeMonitor>& edges,
                                                size_t position, uint64_t driving_rows,
                                                const std::vector<size_t>& order);

  /// Fig 3 between driving rows: the switched order (new driving leg
  /// first), or nullopt to keep `order`. Counts the check, and logs a
  /// switch, which the caller must apply.
  std::optional<std::vector<size_t>> CheckDriving(const std::vector<LegView>& legs,
                                                  const std::vector<EdgeMonitor>& edges,
                                                  const std::vector<size_t>& order,
                                                  uint64_t driving_rows);

  /// Adds the counts to `stats` and appends the event log.
  void FinishStats(ExecStats* stats) const;

 private:
  const PipelinePlan* plan_;
  AdaptiveOptions options_;
  std::unique_ptr<AdaptationPolicy> policy_;
  std::vector<double> index_heights_;  ///< per query table (Eq 1's PC)
  uint64_t inner_checks_ = 0;
  uint64_t inner_reorders_ = 0;
  uint64_t driving_checks_ = 0;
  uint64_t driving_switches_ = 0;
  std::vector<std::string> events_;
};

}  // namespace ajr
