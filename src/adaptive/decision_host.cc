#include "adaptive/decision_host.h"

#include <algorithm>
#include <utility>

#include "common/exec_stats.h"
#include "common/string_util.h"

namespace ajr {

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

DecisionHost::DecisionHost(const PipelinePlan* plan, const AdaptiveOptions& options,
                           std::unique_ptr<AdaptationPolicy> policy)
    : plan_(plan),
      options_(options),
      policy_(policy != nullptr ? std::move(policy) : MakePolicy(options)) {
  // Eq 1's probe-index height: the table's tallest index, at least 3.
  // Indexes are immutable after BulkLoad, so one pass serves the run.
  for (const TableEntry* entry : plan_->entries) {
    double height = 3;
    for (const auto& idx : entry->indexes()) {
      height = std::max(height, static_cast<double>(idx->tree->height()));
    }
    index_heights_.push_back(height);
  }
}

LegView DecisionHost::View(size_t table, const LegMonitor& inner,
                           const DrivingMonitor& driving, const Demotion& demotion,
                           bool ever_driven, double total_entries) const {
  return {.inner = &inner,
          .driving = &driving,
          .index_height = index_heights_[table],
          .demoted_fraction = demotion.demoted ? demotion.remaining_fraction : 1.0,
          .ever_driven = ever_driven,
          .total_entries = total_entries,
          .remaining_entries = demotion.remaining_entries};
}

std::optional<std::vector<size_t>> DecisionHost::CheckInner(
    const std::vector<LegView>& legs, const std::vector<EdgeMonitor>& edges,
    size_t position, uint64_t driving_rows, const std::vector<size_t>& order) {
  ++inner_checks_;
  CostInputs in = BuildInnerCheckInputs(*plan_, legs, edges, options_);
  PolicyDecision decision =
      policy_->Decide({DecisionPoint::kInnerDepleted, position, &in, &order, nullptr});
  if (!decision.changed()) return std::nullopt;
  ++inner_reorders_;
  // The reordered tail, each leg with the JC and rank it was ordered by.
  std::string msg = StrCat("inner reorder at position ", position, " after ",
                           driving_rows, " driving rows; order");
  uint64_t mask = 0;
  for (size_t i = 0; i < decision.new_order.size(); ++i) {
    const size_t t = decision.new_order[i];
    msg += " " + plan_->query.tables[t].alias;
    if (i >= position) {
      const double jc = JcAt(in, t, mask);
      msg += StrCat("(jc=", FormatDouble(jc, 3),
                    ",rank=", FormatDouble(Rank(jc, PcAt(in, t, mask)), 4), ")");
    }
    mask |= uint64_t{1} << t;
  }
  events_.push_back(std::move(msg));
  return std::move(decision.new_order);
}

std::optional<std::vector<size_t>> DecisionHost::CheckDriving(
    const std::vector<LegView>& legs, const std::vector<EdgeMonitor>& edges,
    const std::vector<size_t>& order, uint64_t driving_rows) {
  ++driving_checks_;
  DrivingCheckInputs check =
      BuildDrivingCheckInputs(*plan_, legs, edges, options_, order[0]);
  PolicyDecision decision = policy_->Decide(
      {DecisionPoint::kDrivingBoundary, 1, &check.inputs, &order, &check.candidates});
  if (!decision.changed()) return std::nullopt;
  ++driving_switches_;
  const auto& tables = plan_->query.tables;
  std::string msg = StrCat(
      "driving switch after ", driving_rows, " rows: ", tables[order[0]].alias,
      " -> ", tables[decision.new_order[0]].alias, " (est remaining ",
      FormatDouble(decision.est_current, 0), " -> ",
      FormatDouble(decision.est_best, 0), " wu); order");
  for (size_t t : decision.new_order) msg += " " + tables[t].alias;
  events_.push_back(std::move(msg));
  return std::move(decision.new_order);
}

void DecisionHost::FinishStats(ExecStats* stats) const {
  stats->inner_checks += inner_checks_;
  stats->inner_reorders += inner_reorders_;
  stats->driving_checks += driving_checks_;
  stats->driving_switches += driving_switches_;
  stats->policy_decisions += policy_->stats().decisions;
  stats->events.insert(stats->events.end(), events_.begin(), events_.end());
}

}  // namespace ajr
