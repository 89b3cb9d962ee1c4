#include "optimize/greedy_order.h"

#include <cstdint>

namespace ajr {

namespace {

double FilteredCardinality(const CostInputs& in, size_t t) {
  return in.tables[t].cardinality * in.tables[t].local_sel;
}

// `worst` flips every comparison: pick-largest instead of pick-smallest.
std::vector<size_t> GreedyOrderImpl(const CostInputs& in, bool worst) {
  const size_t n = in.tables.size();
  std::vector<size_t> order;
  order.reserve(n);
  if (n == 0) return order;

  // Strictly-better predicate: scanning candidates in ascending table index
  // with a strict comparison makes every tie resolve to the smaller index.
  auto better = [worst](double score, double best) {
    return worst ? score > best : score < best;
  };

  std::vector<bool> placed(n, false);
  size_t first = 0;
  for (size_t t = 1; t < n; ++t) {
    if (better(FilteredCardinality(in, t), FilteredCardinality(in, first))) {
      first = t;
    }
  }
  order.push_back(first);
  placed[first] = true;
  uint64_t mask = uint64_t{1} << first;

  while (order.size() < n) {
    size_t pick = SIZE_MAX;
    double pick_score = 0;
    for (size_t t = 0; t < n; ++t) {
      if (placed[t] || ChooseProbeEdge(in, t, mask) == SIZE_MAX) continue;
      // flow is a common factor across candidates, so the per-round
      // post-join cardinality comparison reduces to JC(T | placed).
      const double score = JcAt(in, t, mask);
      if (pick == SIZE_MAX || better(score, pick_score)) {
        pick = t;
        pick_score = score;
      }
    }
    if (pick == SIZE_MAX) {
      // Disconnected remainder: no leg joins the prefix, so the pick is a
      // cross product either way — fall back to filtered cardinality.
      for (size_t t = 0; t < n; ++t) {
        if (placed[t]) continue;
        const double score = FilteredCardinality(in, t);
        if (pick == SIZE_MAX || better(score, pick_score)) {
          pick = t;
          pick_score = score;
        }
      }
    }
    order.push_back(pick);
    placed[pick] = true;
    mask |= uint64_t{1} << pick;
  }
  return order;
}

}  // namespace

std::vector<size_t> GreedyCardinalityOrder(const CostInputs& in) {
  return GreedyOrderImpl(in, /*worst=*/false);
}

std::vector<size_t> AntiGreedyCardinalityOrder(const CostInputs& in) {
  return GreedyOrderImpl(in, /*worst=*/true);
}

double EstimatedJoinOutput(const CostInputs& in,
                           const std::vector<size_t>& order) {
  if (order.empty()) return 0;
  double flow = FilteredCardinality(in, order[0]);
  uint64_t mask = uint64_t{1} << order[0];
  for (size_t i = 1; i < order.size(); ++i) {
    flow *= JcAt(in, order[i], mask);
    mask |= uint64_t{1} << order[i];
  }
  return flow;
}

}  // namespace ajr
