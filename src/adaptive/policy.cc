#include "adaptive/policy.h"

#include <cassert>

namespace ajr {

PolicyDecision RankPolicy::Decide(const PolicySnapshot& snapshot) {
  ++stats_.decisions;
  PolicyDecision d;
  const std::vector<size_t>& order = *snapshot.order;
  if (snapshot.point == DecisionPoint::kInnerDepleted) {
    auto tail = CheckInnerReorder(*snapshot.inputs, order, snapshot.position,
                                  options_.inner_benefit_epsilon);
    if (!tail.has_value()) return d;
    d.new_order.assign(order.begin(), order.begin() + snapshot.position);
    d.new_order.insert(d.new_order.end(), tail->begin(), tail->end());
    return d;
  }
  assert(snapshot.candidates != nullptr);
  auto decision =
      CheckDrivingSwitch(*snapshot.inputs, order, *snapshot.candidates, options_);
  if (!decision.has_value()) return d;
  d.new_order = std::move(decision->new_order);
  d.est_current = decision->est_current;
  d.est_best = decision->est_best;
  return d;
}

std::unique_ptr<AdaptationPolicy> MakePolicy(const AdaptiveOptions& options) {
  return std::make_unique<RankPolicy>(options);
}

}  // namespace ajr
