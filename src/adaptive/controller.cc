#include "adaptive/controller.h"

#include <cassert>
#include <limits>

namespace ajr {

namespace {

// Sample floor for monitored local selectivities in inner-reorder checks.
constexpr uint64_t kInnerMinSamples = 2;

CostInputs BuildCostInputs(const PipelinePlan& plan,
                           const std::vector<LegView>& legs,
                           const std::vector<EdgeMonitor>& edges,
                           const AdaptiveOptions& options,
                           uint64_t min_leg_samples) {
  CostInputs in = BuildProbeEdgeInputs(plan, edges, options);
  assert(legs.size() == in.tables.size());
  for (size_t t = 0; t < in.tables.size(); ++t) {
    const LegView& leg = legs[t];
    LegParams& p = in.tables[t];
    p.index_height = leg.index_height;
    p.local_sel = EffectiveLocalSel(*leg.inner, *leg.driving, plan.est_local_sel[t],
                                    plan.access[t].driving.est_slpi, min_leg_samples);
    // A demoted leg's positional predicate shrinks its effective
    // cardinality to the unprocessed remainder.
    p.local_sel *= leg.demoted_fraction;
  }
  return in;
}

}  // namespace

CostInputs BuildProbeEdgeInputs(const PipelinePlan& plan,
                                const std::vector<EdgeMonitor>& edges,
                                const AdaptiveOptions& options) {
  CostInputs in;
  in.query = &plan.query;
  in.tables.resize(plan.query.tables.size());
  for (size_t t = 0; t < in.tables.size(); ++t) {
    in.tables[t].cardinality = static_cast<double>(plan.entries[t]->StatsCardinality());
  }
  in.edge_sel.resize(plan.query.edges.size());
  for (size_t e = 0; e < in.edge_sel.size(); ++e) {
    in.edge_sel[e] = edges[e].Selectivity(plan.est_edge_sel[e], options.min_edge_pairs);
  }
  return in;
}

std::optional<std::vector<size_t>> CheckInnerReorder(const CostInputs& in,
                                                     const std::vector<size_t>& order,
                                                     size_t from,
                                                     double benefit_epsilon) {
  assert(from >= 1 && from <= order.size());
  if (from + 1 >= order.size()) return std::nullopt;  // nothing to permute
  uint64_t mask = 0;
  for (size_t i = 0; i < from; ++i) mask |= uint64_t{1} << order[i];
  std::vector<size_t> tail(order.begin() + from, order.end());
  std::vector<size_t> ideal = GreedyRankOrder(in, tail, mask);
  if (ideal == tail) return std::nullopt;
  if (benefit_epsilon > 0 &&
      TailCost(in, ideal, mask) > (1.0 - benefit_epsilon) * TailCost(in, tail, mask)) {
    return std::nullopt;  // near-lateral move: not worth disturbing the pipeline
  }
  return ideal;
}

std::optional<DrivingSwitchDecision> CheckDrivingSwitch(
    const CostInputs& in, const std::vector<size_t>& order,
    const std::vector<DrivingCandidate>& candidates,
    const AdaptiveOptions& options) {
  assert(!order.empty());
  assert(candidates.size() == in.tables.size());
  const size_t current = order[0];

  // Remaining cost of the current plan with its current inner order.
  double current_cost = PipelineCost(in, order, candidates[current].raw_entries,
                                     candidates[current].flow);

  double best_cost = current_cost;
  std::vector<size_t> best_order;
  for (size_t d = 0; d < in.tables.size(); ++d) {
    if (d == current) continue;
    std::vector<size_t> inners;
    for (size_t t = 0; t < in.tables.size(); ++t) {
      if (t != d) inners.push_back(t);
    }
    std::vector<size_t> cand_order = {d};
    auto rest = GreedyRankOrder(in, inners, uint64_t{1} << d);
    cand_order.insert(cand_order.end(), rest.begin(), rest.end());
    double cost =
        PipelineCost(in, cand_order, candidates[d].raw_entries, candidates[d].flow);
    if (cost < best_cost) {
      best_cost = cost;
      best_order = std::move(cand_order);
    }
  }
  if (best_order.empty()) return std::nullopt;
  if (current_cost < best_cost * options.switch_benefit_threshold) {
    return std::nullopt;  // not enough benefit to risk thrashing
  }
  DrivingSwitchDecision decision;
  decision.new_order = std::move(best_order);
  decision.est_current = current_cost;
  decision.est_best = best_cost;
  return decision;
}

CostInputs BuildInnerCheckInputs(const PipelinePlan& plan,
                                 const std::vector<LegView>& legs,
                                 const std::vector<EdgeMonitor>& edges,
                                 const AdaptiveOptions& options) {
  return BuildCostInputs(plan, legs, edges, options, kInnerMinSamples);
}

DrivingCheckInputs BuildDrivingCheckInputs(const PipelinePlan& plan,
                                           const std::vector<LegView>& legs,
                                           const std::vector<EdgeMonitor>& edges,
                                           const AdaptiveOptions& options,
                                           size_t current) {
  DrivingCheckInputs out;
  out.inputs = BuildCostInputs(plan, legs, edges, options, options.min_leg_samples);
  CostInputs& in = out.inputs;
  // Anticipate the demotion of the current driving leg: as an inner leg its
  // positional predicate would keep only the unprocessed remainder.
  const LegView& cur = legs[current];
  if (cur.total_entries > 0) {
    in.tables[current].local_sel *= std::min(1.0, cur.remaining_entries / cur.total_entries);
  }
  out.candidates.resize(in.tables.size());
  for (size_t t = 0; t < in.tables.size(); ++t) {
    DrivingCandidate& cand = out.candidates[t];
    cand.table = t;
    const LegView& leg = legs[t];
    const DrivingAccess& access = plan.access[t].driving;
    if (leg.ever_driven) {
      // Exact: the scan knows its position; a demoted leg's remainder was
      // frozen at demotion time.
      cand.raw_entries = leg.remaining_entries;
      double s_lpr = leg.driving->scanned_total() > 0
                         ? leg.driving->ResidualSel(1.0)
                         : (access.est_slpi > 0 ? plan.est_local_sel[t] / access.est_slpi
                                                : 1.0);
      cand.flow = cand.raw_entries * std::min(1.0, s_lpr);
    } else {
      // Never scanned: the optimizer's S_LPI (Sec 4.3.3) — possibly badly
      // wrong under skew, which is the paper's Template 4 degradation.
      double card = static_cast<double>(plan.entries[t]->StatsCardinality());
      cand.raw_entries = access.est_slpi * card;
      cand.flow = in.tables[t].local_sel * card;
    }
  }
  return out;
}

}  // namespace ajr
