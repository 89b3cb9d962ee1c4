// Cardinality-greedy initial join orders for wide queries (DESIGN.md §13).
//
// The planner's default seeding costs every driving candidate with a
// greedy-rank tail — O(n^2) GreedyRankOrder calls — which is fine at the
// paper's 4-6 tables but wasteful at 10-20, where the estimates feeding it
// are mostly noise anyway (independence errors compound per join). Above
// PlannerOptions::greedy_seed_threshold the planner instead seeds with the
// classic cardinality-greedy order (ByConity's CardinalityBasedJoinReorder,
// Steinbrunn et al.'s minimum-intermediate-result heuristic): start from
// the smallest filtered leg, then place, round by round, the connected leg
// with the smallest estimated post-join cardinality. The run-time monitors
// plus RankPolicy are expected to repair what the heuristic gets wrong —
// that contract is what bench/wide_join measures.
//
// All selection here is deterministic: candidates are scanned in table-index
// order and only a strictly better score displaces the incumbent, so equal
// and zero cardinalities tie toward the smallest index.

#pragma once

#include <cstddef>
#include <vector>

#include "optimize/cost_model.h"

namespace ajr {

/// Cardinality-greedy order over every leg of `in`. order[0] is the leg
/// with the smallest filtered cardinality C(T) * S_LP(T); each following
/// round appends the connected unplaced leg with the smallest estimated
/// post-join cardinality flow * JC(T | placed). Legs with no edge into the
/// placed prefix become eligible only when no connected leg remains (the
/// cross-product fallback for disconnected graphs), picked by filtered
/// cardinality. Deterministic; ties break toward the smaller table index.
std::vector<size_t> GreedyCardinalityOrder(const CostInputs& in);

/// The adversarial mirror of GreedyCardinalityOrder: largest filtered
/// cardinality first, largest post-join cardinality each round — but still
/// connectivity-respecting, so the result is a bad-but-executable seed with
/// no accidental cross products. bench/wide_join and the wide-join tests
/// use it as the "corrupted optimizer" order adaptive repair must recover
/// from; a naive reversal would disconnect star prefixes and measure
/// cross-product blowup instead of misordering.
std::vector<size_t> AntiGreedyCardinalityOrder(const CostInputs& in);

/// Estimated rows the fully joined pipeline emits under `in`: the driving
/// leg's filtered cardinality times JC of every inner given its prefix.
/// Shared by the greedy pass's tests and the wide workload generator's
/// sanity checks.
double EstimatedJoinOutput(const CostInputs& in,
                           const std::vector<size_t>& order);

}  // namespace ajr
