#include "testing/oracle.h"

#include <algorithm>
#include <memory>

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

// True when `pos` lies strictly after `prev` in their shared scan order.
bool StrictlyAfter(const ScanPosition& prev, const ScanPosition& pos) {
  if (prev.order == ScanOrder::kRidOrder) return prev.StrictlyBeforeRid(pos.rid);
  return prev.StrictlyBefore(pos.key(), pos.rid);
}

std::string OrderToString(const std::vector<size_t>& order) {
  std::string out = "[";
  for (size_t i = 0; i < order.size(); ++i) {
    if (i > 0) out += " ";
    out += std::to_string(order[i]);
  }
  return out + "]";
}

// First logical-work field where `b` diverges from `a`, or nullopt when
// the two runs did the same work. Sharing stats (probe_cache_shared_*,
// shared_scan_*) and wall time are deliberately excluded: they describe HOW
// the work ran, not what work the controller saw.
std::optional<std::string> WorkStatsDiff(const ExecStats& a, const ExecStats& b) {
  auto diff_u64 = [](const char* field, uint64_t x, uint64_t y)
      -> std::optional<std::string> {
    if (x == y) return std::nullopt;
    return StrCat(field, ": ", x, " vs ", y);
  };
  for (auto& d :
       {diff_u64("work_units", a.work_units, b.work_units),
        diff_u64("rows_out", a.rows_out, b.rows_out),
        diff_u64("driving_rows_produced", a.driving_rows_produced,
                 b.driving_rows_produced),
        diff_u64("inner_checks", a.inner_checks, b.inner_checks),
        diff_u64("inner_reorders", a.inner_reorders, b.inner_reorders),
        diff_u64("driving_checks", a.driving_checks, b.driving_checks),
        diff_u64("driving_switches", a.driving_switches, b.driving_switches),
        diff_u64("policy_decisions", a.policy_decisions, b.policy_decisions),
        diff_u64("policy_reorders", a.policy_reorders, b.policy_reorders),
        diff_u64("policy_switches", a.policy_switches, b.policy_switches),
        diff_u64("policy_regret_x1000", a.policy_regret_x1000,
                 b.policy_regret_x1000)}) {
    if (d.has_value()) return d;
  }
  if (a.initial_order != b.initial_order) {
    return StrCat("initial_order: ", OrderToString(a.initial_order), " vs ",
                  OrderToString(b.initial_order));
  }
  if (a.final_order != b.final_order) {
    return StrCat("final_order: ", OrderToString(a.final_order), " vs ",
                  OrderToString(b.final_order));
  }
  if (a.events != b.events) {
    size_t i = 0;
    while (i < a.events.size() && i < b.events.size() && a.events[i] == b.events[i]) {
      ++i;
    }
    return StrCat("event log diverges at event ", i, ": \"",
                  i < a.events.size() ? a.events[i] : "<none>", "\" vs \"",
                  i < b.events.size() ? b.events[i] : "<none>", "\"");
  }
  return std::nullopt;
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
  // The static baseline is a policy now, not a pair of disabled flags: the
  // StaticPolicy's capabilities gate every check off, so the optimizer's
  // initial order runs unchanged.
  AdaptiveOptions off;
  off.policy = PolicyKind::kStatic;
  AdaptiveOptions aggressive = AggressiveAdaptiveOptions();
  AdaptiveOptions regret;
  regret.policy = PolicyKind::kRegret;
  AdaptiveOptions regret_aggressive = AggressiveAdaptiveOptions();
  regret_aggressive.policy = PolicyKind::kRegret;
  return {
      {"static", off, StatsTier::kBase, ""},
      {"paper-default", AdaptiveOptions{}, StatsTier::kMinimal, ""},
      {"aggressive-minimal", aggressive, StatsTier::kMinimal, ""},
      // The aggressive configs demote and re-promote on nearly every check:
      // the hardest case for positional predicates and cursor resumption.
      {"aggressive-base", aggressive, StatsTier::kBase, ""},
      // Regret-bounded policy axis: results must still match the reference
      // under UCB-driven switching.
      {"regret-base", regret, StatsTier::kBase, ""},
      {"regret-aggressive", regret_aggressive, StatsTier::kBase, ""},
      // Morsel-parallel axis: the same invariants must hold per worker
      // pipeline, and the merged result multiset must still equal the
      // reference, for every dop. Tiny morsels force frequent dispenser
      // round-trips, monitor folds, and (for the aggressive config) drain
      // barriers under constant switching.
      {"static/dop2", off, StatsTier::kBase, "", 2, 5},
      {"paper-default/dop2", AdaptiveOptions{}, StatsTier::kMinimal, "", 2, 5},
      {"aggressive-base/dop4", aggressive, StatsTier::kBase, "", 4, 3},
      {"regret-base/dop2", regret, StatsTier::kBase, "", 2, 5},
  };
}

std::vector<DifferentialConfig> ConfigsForShare() {
  using Share = DifferentialConfig::Share;
  // All share configs run the morsel-parallel orchestration at dop 1 (one
  // worker consumes morsels in dispenser order, so runs are deterministic
  // and the four modes can be held to bit-identical work in one class).
  auto mk = [](const char* name, AdaptiveOptions adaptive, const char* cls,
               Share share) {
    DifferentialConfig c;
    c.name = name;
    c.adaptive = adaptive;
    c.stats_tier = StatsTier::kBase;
    c.work_class = cls;
    c.dop = 1;
    c.morsel_size = 5;
    c.share = share;
    c.force_parallel = true;
    return c;
  };
  // The aggressive options demote and re-promote constantly, so the shared
  // modes exercise kept-attachment resumption and epoch-tagged shared-cache
  // retirement under maximum switching churn.
  AdaptiveOptions aggressive = AggressiveAdaptiveOptions();
  std::vector<DifferentialConfig> out = {
      mk("share-off", AdaptiveOptions{}, "share", Share::kOff),
      mk("share-scan", AdaptiveOptions{}, "share", Share::kScan),
      mk("share-cache", AdaptiveOptions{}, "share", Share::kCache),
      mk("share-both", AdaptiveOptions{}, "share", Share::kBoth),
      mk("share-off/aggressive", aggressive, "share-aggressive", Share::kOff),
      mk("share-both/aggressive", aggressive, "share-aggressive", Share::kBoth),
  };
  // Concurrency smoke: two workers over one shared pass and striped cache.
  // Classless — morsel interleaving makes per-run work timing-dependent.
  DifferentialConfig dop2 =
      mk("share-both/dop2", AdaptiveOptions{}, "", Share::kBoth);
  dop2.dop = 2;
  out.push_back(dop2);
  return out;
}

std::vector<DifferentialConfig> ConfigsForPolicy(PolicyKind kind) {
  std::vector<DifferentialConfig> out;
  for (DifferentialConfig& config : DefaultConfigs()) {
    if (config.adaptive.policy == kind) out.push_back(std::move(config));
  }
  return out;
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
  if (event.demoted_table < last_driving_pos_.size() &&
      event.demoted_prefix.has_value()) {
    const std::optional<ScanPosition>& last = last_driving_pos_[event.demoted_table];
    if (last.has_value() && StrictlyAfter(*event.demoted_prefix, *last)) {
      Violation(StrCat("I2: demoted table ", event.demoted_table, " prefix ",
                       event.demoted_prefix->ToString(),
                       " does not cover its last driving row at ",
                       last->ToString()));
    }
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

  const std::vector<DifferentialConfig> configs =
      options.configs.empty() ? DefaultConfigs() : options.configs;
  // Reference run per work_class: name of the first config in the class
  // plus its stats, compared against every later member.
  std::vector<std::pair<std::string, ExecStats>> class_stats;
  std::vector<std::string> class_names;
  // Detail of a divergence from the config's work_class reference, or
  // nullopt (also when the config opens its class or has none).
  auto work_class_diff = [&](const DifferentialConfig& config,
                             const ExecStats& stats) -> std::optional<std::string> {
    if (config.work_class.empty()) return std::nullopt;
    size_t cls = 0;
    while (cls < class_names.size() && class_names[cls] != config.work_class) ++cls;
    if (cls == class_names.size()) {
      class_names.push_back(config.work_class);
      class_stats.emplace_back(config.name, stats);
      return std::nullopt;
    }
    std::optional<std::string> diff = WorkStatsDiff(class_stats[cls].second, stats);
    if (!diff.has_value()) return std::nullopt;
    return StrCat("logical work differs from config \"", class_stats[cls].first,
                  "\" (work_class \"", config.work_class, "\"): ", *diff);
  };
  for (const DifferentialConfig& config : configs) {
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
      //
      // Sharing configs (--share axis) run TWICE against one registry/
      // cache pair: the cold run populates them, the warm run attaches to
      // the retained pass / hits the cached probes, and the two runs must
      // do bit-identical logical work — replay may change how work is
      // performed, never what work the controller sees.
      SharedScanRegistry scan_registry;
      SharedProbeCache shared_probe_cache;
      const bool share_scan = config.share == DifferentialConfig::Share::kScan ||
                              config.share == DifferentialConfig::Share::kBoth;
      const bool share_cache =
          config.share == DifferentialConfig::Share::kCache ||
          config.share == DifferentialConfig::Share::kBoth;
      const size_t runs =
          config.share == DifferentialConfig::Share::kOff ? 1 : 2;
      std::optional<ExecStats> cold_stats;
      for (size_t run = 0; run < runs; ++run) {
        ParallelExecOptions popts;
        popts.dop = config.dop;
        popts.morsel_size = config.morsel_size;
        popts.force_parallel = config.force_parallel;
        if (share_scan) popts.scan_registry = &scan_registry;
        if (share_cache) popts.shared_cache = &shared_probe_cache;
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
        if (std::optional<std::string> diff =
                CompareSortedRows(expected, &rows)) {
          failure.kind = "result-mismatch";
          failure.detail =
              StrCat(run == 0 ? "" : "warm re-run: ", std::move(*diff));
          return std::optional<FailureReport>(std::move(failure));
        }
        if (run == 0) {
          cold_stats = *stats;
        } else if (config.dop <= 1) {
          // Warm-vs-cold work identity is a single-worker property; at
          // dop > 1 morsel interleaving makes per-run work timing-
          // dependent (the warm run still checks results + invariants).
          if (std::optional<std::string> diff =
                  WorkStatsDiff(*cold_stats, *stats)) {
            failure.kind = "work-divergence";
            failure.detail = StrCat(
                "warm re-run against the retained registry/cache diverges "
                "from the cold run: ",
                *diff);
            return std::optional<FailureReport>(std::move(failure));
          }
        }
      }
      // Forced-parallel single-worker runs are deterministic, so they may
      // join a work_class (real dop > 1 configs stay classless).
      if (config.dop <= 1) {
        if (std::optional<std::string> diff = work_class_diff(config, *cold_stats)) {
          failure.kind = "work-divergence";
          failure.detail = std::move(*diff);
          return std::optional<FailureReport>(std::move(failure));
        }
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
    if (std::optional<std::string> diff = work_class_diff(config, *stats)) {
      failure.kind = "work-divergence";
      failure.detail = std::move(*diff);
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
