#include "testing/oracle.h"

#include <algorithm>
#include <memory>
#include <tuple>

#include "common/string_util.h"
#include "exec/reference_executor.h"
#include "optimize/planner.h"
#include "runtime/parallel_executor.h"

namespace ajr {
namespace testing {

namespace {

std::string RowToString(const Row& row) {
  std::string out = "(";
  for (size_t i = 0; i < row.size(); ++i) {
    if (i > 0) out += ", ";
    out += row[i].ToString();
  }
  return out + ")";
}

std::string RidsKey(const std::vector<Rid>& rids) {
  std::string key;
  key.reserve(rids.size() * 6);
  for (Rid r : rids) {
    key += std::to_string(r);
    key += ',';
  }
  return key;
}

// True when `pos` lies strictly after `prev` in their shared scan order
// (RID-order positions all carry key 0).
bool StrictlyAfter(const ScanPosition& prev, const ScanPosition& pos) {
  return std::tie(prev.key_enc, prev.rid) < std::tie(pos.key_enc, pos.rid);
}

// Detail string for a result-multiset mismatch, or nullopt when `rows`
// (sorted in place) equals `expected` (already sorted).
std::optional<std::string> CompareSortedRows(const std::vector<Row>& expected,
                                             std::vector<Row>* rows) {
  SortRows(rows);
  if (*rows == expected) return std::nullopt;
  std::string detail = StrCat("reference rows=", expected.size(),
                              " adaptive rows=", rows->size(), "\n");
  const size_t n = std::min(rows->size(), expected.size());
  size_t diff = n;
  for (size_t i = 0; i < n; ++i) {
    if (!((*rows)[i] == expected[i])) {
      diff = i;
      break;
    }
  }
  if (diff < n) {
    detail += StrCat("first difference at sorted row ", diff,
                     ": reference=", RowToString(expected[diff]),
                     " adaptive=", RowToString((*rows)[diff]), "\n");
  } else if (rows->size() != expected.size()) {
    const std::vector<Row>& longer = rows->size() > n ? *rows : expected;
    detail += StrCat(rows->size() > n ? "extra" : "missing",
                     " row: ", RowToString(longer[n]), "\n");
  }
  return detail;
}

}  // namespace

AdaptiveOptions AggressiveAdaptiveOptions() {
  AdaptiveOptions aggressive;
  aggressive.check_frequency = 1;
  aggressive.switch_benefit_threshold = 1.0;
  aggressive.inner_benefit_epsilon = 0.0;
  aggressive.history_window = 4;
  aggressive.min_edge_pairs = 1;
  aggressive.min_leg_samples = 1;
  aggressive.check_backoff = false;
  return aggressive;
}

std::vector<DifferentialConfig> DefaultConfigs() {
  // The static baseline: both reorder flags off gate every check, so the
  // optimizer's initial order runs unchanged.
  AdaptiveOptions off;
  off.reorder_inners = false;
  off.reorder_driving = false;
  AdaptiveOptions aggressive = AggressiveAdaptiveOptions();
  // The parallel twins pin a small ramp base c (the first morsel's entry
  // count) so a small fuzz query still crosses many morsel boundaries.
  auto base = [](AdaptiveOptions o, size_t c) {
    o.check_frequency = c;
    return o;
  };
  return {
      {"static", off, StatsTier::kBase},
      {"paper-default", AdaptiveOptions{}, StatsTier::kMinimal},
      {"aggressive-minimal", aggressive, StatsTier::kMinimal},
      // The aggressive configs demote and re-promote on nearly every check:
      // the hardest case for positional predicates and cursor resumption.
      {"aggressive-base", aggressive, StatsTier::kBase},
      // Morsel-parallel axis: the same invariants must hold per worker
      // pipeline, and the merged result multiset must still equal the
      // reference, for every dop. Tiny morsels force frequent dispenser
      // round-trips and monitor folds; the static run's ramp only grows,
      // the paper-default one resets at every reorder, and the aggressive
      // ones (no back-off) stay at 3 entries, so drain barriers land under
      // constant switching.
      {"static/dop2", base(off, 5), StatsTier::kBase, 2},
      {"paper-default/dop2", base(AdaptiveOptions{}, 5), StatsTier::kMinimal, 2},
      {"aggressive-base/dop4", base(aggressive, 3), StatsTier::kBase, 4},
      // The coordinator with one worker: deterministic (morsels are
      // consumed in dispenser order), so a failing seed replays exactly.
      // Its decisions come from the coordinator's folds, not the serial
      // checks, so its work legitimately differs from aggressive-base's.
      {"aggressive-base/one-worker", base(aggressive, 3), StatsTier::kBase, 1,
       /*force_parallel=*/true},
  };
}

std::string FailureReport::ToString() const {
  return StrCat("[seed ", seed, "] config=", config, " kind=", kind, "\n", detail);
}

// ---- InvariantChecker ------------------------------------------------------

InvariantChecker::InvariantChecker(std::vector<size_t> cardinalities)
    : cardinalities_(std::move(cardinalities)),
      last_driving_pos_(cardinalities_.size()) {}

void InvariantChecker::Violation(std::string message) {
  if (violations_.size() < kMaxViolations) {
    violations_.push_back(std::move(message));
  }
}

void InvariantChecker::OnDrivingRow(size_t t, Rid rid, const ScanPosition& pos) {
  last_depleted_level_.reset();
  ++driving_rows_;
  std::optional<ScanPosition>& prev = last_driving_pos_[t];
  if (prev.has_value()) {
    if (prev->order != pos.order) {
      Violation(StrCat("I2: table ", t, " changed scan order mid-run"));
    } else if (!StrictlyAfter(*prev, pos)) {
      Violation(StrCat("I2: table ", t, " driving scan regressed: row ", rid,
                       " at ", pos.ToString(), " not after ", prev->ToString()));
    }
  }
  prev = pos;
}

void InvariantChecker::OnProbe(size_t t, size_t level, uint64_t fetched,
                               uint64_t after_edges, uint64_t out) {
  last_depleted_level_.reset();
  if (out > after_edges || after_edges > fetched) {
    Violation(StrCat("I3: probe counters inconsistent at table ", t, " level ",
                     level, ": fetched=", fetched, " after_edges=", after_edges,
                     " out=", out));
  }
  if (t < cardinalities_.size() && fetched > cardinalities_[t]) {
    Violation(StrCat("I3: probe of table ", t, " fetched ", fetched,
                     " rows > cardinality ", cardinalities_[t]));
  }
}

void InvariantChecker::OnEmit(const std::vector<Rid>& rids) {
  last_depleted_level_.reset();
  ++emitted_count_;
  if (!emitted_.insert(RidsKey(rids)).second) {
    Violation(StrCat("I1: join combination ", RidsKey(rids),
                     " emitted twice (duplicate row)"));
  }
}

void InvariantChecker::OnDepleted(size_t level) { last_depleted_level_ = level; }

void InvariantChecker::OnAdaptation(const AdaptationEvent& event) {
  if (event.kind == AdaptationEvent::Kind::kInnerReorder) {
    if (last_depleted_level_ != event.position) {
      Violation(StrCat("I4: inner reorder at position ", event.position,
                       " outside a depleted state"));
    }
    return;
  }
  // Driving switch: legal only when the whole pipeline is depleted, i.e.
  // directly after segment [1..k] depleted (single-leg plans never switch).
  if (last_depleted_level_ != size_t{1}) {
    Violation("I4: driving switch outside the between-driving-rows state");
  }
  // I2 fails closed: the switch must name the old driving leg, and once
  // that leg has driven a row here, carry a prefix that covers the row.
  if (event.order_before.empty() || event.demoted_table != event.order_before[0] ||
      event.demoted_table >= last_driving_pos_.size()) {
    Violation(StrCat("I2: driving switch demotes table ", event.demoted_table,
                     ", not the old driving leg"));
    return;
  }
  const std::optional<ScanPosition>& last = last_driving_pos_[event.demoted_table];
  if (!last.has_value()) return;
  if (!event.demoted_prefix.has_value()) {
    Violation(StrCat("I2: demoted table ", event.demoted_table,
                     " carries no prefix though it drove rows up to ", last->ToString()));
  } else if (StrictlyAfter(*event.demoted_prefix, *last)) {
    Violation(StrCat("I2: demoted table ", event.demoted_table, " prefix ",
                     event.demoted_prefix->ToString(),
                     " does not cover its last driving row at ", last->ToString()));
  }
}

void InvariantChecker::FinalCheck(const ExecStats& stats) {
  if (stats.rows_out != emitted_count_) {
    Violation(StrCat("I5: stats.rows_out=", stats.rows_out, " but observed ",
                     emitted_count_, " emits"));
  }
  if (stats.driving_rows_produced != driving_rows_) {
    Violation(StrCat("I5: stats.driving_rows_produced=", stats.driving_rows_produced,
                     " but observed ", driving_rows_, " driving rows"));
  }
}

// ---- RunDifferential -------------------------------------------------------

StatusOr<std::optional<FailureReport>> RunDifferential(
    const WorkloadSpec& spec, const DifferentialOptions& options) {
  AJR_RETURN_IF_ERROR(spec.query.Validate());
  AJR_ASSIGN_OR_RETURN(std::unique_ptr<Catalog> catalog, spec.Materialize());

  AJR_ASSIGN_OR_RETURN(std::vector<Row> expected,
                       ExecuteReference(*catalog, spec.query));
  SortRows(&expected);

  std::vector<size_t> cardinalities;
  for (const TableRef& t : spec.query.tables) {
    AJR_ASSIGN_OR_RETURN(const TableEntry* entry, catalog->GetTable(t.table));
    cardinalities.push_back(entry->table().num_rows());
  }

  for (const DifferentialConfig& config : DefaultConfigs()) {
    FailureReport failure;
    failure.seed = spec.seed;
    failure.config = config.name;

    Planner planner(catalog.get(), PlannerOptions{config.stats_tier});
    auto plan = planner.Plan(spec.query);
    if (!plan.ok()) {
      failure.kind = "error";
      failure.detail = StrCat("planner: ", plan.status().ToString());
      return std::optional<FailureReport>(std::move(failure));
    }

    if (config.dop > 1 || config.force_parallel) {
      // Morsel-parallel run: one InvariantChecker per worker (each worker
      // is a full serial pipeline over its share of driving rows, so I1-I5
      // are per-worker properties), a cross-worker duplicate check, and
      // the usual result comparison on the merged row multiset.
      ParallelExecOptions popts;
      popts.dop = config.dop;
      popts.force_parallel = config.force_parallel;
      ParallelPipelineExecutor exec(plan->get(), config.adaptive, popts);
      std::vector<std::unique_ptr<InvariantChecker>> checkers;
      if (options.check_invariants) {
        std::vector<ExecObserver*> observers;
        for (size_t w = 0; w < config.dop; ++w) {
          checkers.push_back(std::make_unique<InvariantChecker>(cardinalities));
          observers.push_back(checkers.back().get());
        }
        exec.set_worker_observers(std::move(observers));
      }
      if (options.faults != nullptr) exec.set_fault_injection(options.faults);

      std::vector<Row> rows;
      auto stats = exec.Execute([&rows](const Row& r) { rows.push_back(r); });
      if (!stats.ok()) {
        failure.kind = "error";
        failure.detail = StrCat("executor: ", stats.status().ToString());
        return std::optional<FailureReport>(std::move(failure));
      }
      if (options.check_invariants) {
        uint64_t emitted_total = 0;
        std::unordered_set<std::string> all_keys;
        for (size_t w = 0; w < checkers.size(); ++w) {
          checkers[w]->FinalCheck(exec.worker_stats()[w]);
          if (!checkers[w]->ok()) {
            failure.kind = "invariant";
            for (const std::string& v : checkers[w]->violations()) {
              failure.detail += StrCat("worker ", w, ": ", v, "\n");
            }
            return std::optional<FailureReport>(std::move(failure));
          }
          emitted_total += checkers[w]->emitted();
          all_keys.insert(checkers[w]->emitted_keys().begin(),
                          checkers[w]->emitted_keys().end());
        }
        if (all_keys.size() != emitted_total) {
          failure.kind = "invariant";
          failure.detail =
              StrCat("I1: ", emitted_total, " emits across workers but only ",
                     all_keys.size(),
                     " distinct RID tuples (cross-worker duplicate)\n");
          return std::optional<FailureReport>(std::move(failure));
        }
      }
      if (std::optional<std::string> diff = CompareSortedRows(expected, &rows)) {
        failure.kind = "result-mismatch";
        failure.detail = std::move(*diff);
        return std::optional<FailureReport>(std::move(failure));
      }
      continue;
    }

    PipelineExecutor exec(plan->get(), config.adaptive);
    InvariantChecker checker(cardinalities);
    if (options.check_invariants) exec.set_observer(&checker);
    if (options.faults != nullptr) exec.set_fault_injection(options.faults);

    std::vector<Row> rows;
    auto stats = exec.Execute([&rows](const Row& r) { rows.push_back(r); });
    if (!stats.ok()) {
      failure.kind = "error";
      failure.detail = StrCat("executor: ", stats.status().ToString());
      return std::optional<FailureReport>(std::move(failure));
    }
    if (options.check_invariants) {
      checker.FinalCheck(*stats);
      if (!checker.ok()) {
        failure.kind = "invariant";
        for (const std::string& v : checker.violations()) {
          failure.detail += v + "\n";
        }
        return std::optional<FailureReport>(std::move(failure));
      }
    }

    if (std::optional<std::string> diff = CompareSortedRows(expected, &rows)) {
      failure.kind = "result-mismatch";
      failure.detail = std::move(*diff);
      return std::optional<FailureReport>(std::move(failure));
    }
  }
  return std::optional<FailureReport>(std::nullopt);
}

}  // namespace testing
}  // namespace ajr
