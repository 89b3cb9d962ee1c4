// Wide-join repair curve (DESIGN.md §13): how much of the gap between a
// deliberately corrupted initial order and the cardinality-greedy seed
// adaptation wins back as join count sweeps 6 -> 20.
//
// Per width n, wide star (W1) and snowflake (W2) instances run under three
// configurations:
//
//   greedy_static   the planner's seed (cardinality-greedy above the
//                   enumeration threshold), no adaptation — the target
//   corrupt_static  AntiGreedyCardinalityOrder seed, no adaptation — the
//                   damage
//   corrupt_rank    corrupted seed + rank policy (switch driving & inner)
//
// repair = (corrupt_static - corrupt_rank) / (corrupt_static - greedy_static),
// reported on wall time and on deterministic work units (the 1-CPU-stable
// metric). Pass rule: rank repairs at least half the wall-time gap at
// every n >= 10 (exit 1 otherwise). Every configuration must produce the
// same number of rows — the harness aborts on a mismatch.

#include <cstdio>
#include <cstdlib>
#include <vector>

#include "bench/harness_util.h"
#include "optimize/greedy_order.h"

using namespace ajr;
using namespace ajr::bench;

namespace {

struct ConfigResult {
  std::vector<double> wall_ms;
  uint64_t work_units = 0;
  uint64_t rows_out = 0;
  ExecStats stats;
};

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v.empty() ? 0.0 : v[v.size() / 2];
}

ExecStats ExecuteOnce(const PipelinePlan& plan, const AdaptiveOptions& options) {
  PipelineExecutor exec(&plan, options);
  auto stats = exec.Execute(nullptr);
  if (!stats.ok()) {
    std::fprintf(stderr, "execution failed: %s\n",
                 stats.status().ToString().c_str());
    std::exit(1);
  }
  return *stats;
}

}  // namespace

int main(int argc, char** argv) {
  HarnessFlags flags = HarnessFlags::Parse(argc, argv);
  const size_t variants = flags.per_template == 60 ? 2 : std::max<size_t>(1, flags.per_template);
  const std::vector<size_t> widths = {6, 8, 10, 12, 16, 20};

  std::printf("== Wide-join repair curve: corrupted seed vs greedy seed, n=6..20 ==\n");
  std::printf("DMV owners=%zu, %zu variant(s) per template per width, reps=%zu\n\n",
              flags.owners, variants, flags.reps);
  Workbench bench(flags);
  DmvQueryGenerator gen(&bench.catalog(), flags.seed);
  JsonReport report("wide_join", flags);

  constexpr int kConfigs = 3;
  const char* config_names[kConfigs] = {"greedy_static", "corrupt_static",
                                        "corrupt_rank"};
  std::printf("%-12s %14s %14s %14s %12s\n", "query", "greedy_ms",
              "corrupt_ms", "rank_ms", "rank_rep%");

  double min_repair_rank = 1e9;
  for (size_t n : widths) {
    // Per-width totals drive the repair aggregate (single instances are
    // noisy on shared hardware; the JSON carries both levels).
    double total_ms[kConfigs] = {0, 0, 0};
    double total_wu[kConfigs] = {0, 0, 0};

    std::vector<JoinQuery> queries;
    for (size_t v = 0; v < variants; ++v) {
      if (n == 6) {
        auto q = gen.GenerateSixTable(1 + static_cast<int>(v % 2), v / 2);
        if (!q.ok()) { std::fprintf(stderr, "%s\n", q.status().ToString().c_str()); return 1; }
        queries.push_back(std::move(*q));
      } else {
        for (int t = 1; t <= kNumWideTemplates; ++t) {
          auto q = gen.GenerateWide(t, n, v);
          if (!q.ok()) { std::fprintf(stderr, "%s\n", q.status().ToString().c_str()); return 1; }
          queries.push_back(std::move(*q));
        }
      }
    }

    for (const JoinQuery& query : queries) {
      auto planned = bench.planner().Plan(query);
      if (!planned.ok()) {
        std::fprintf(stderr, "planning %s failed: %s\n", query.name.c_str(),
                     planned.status().ToString().c_str());
        return 1;
      }
      const PipelinePlan& greedy_plan = **planned;
      PipelinePlan corrupt_plan = greedy_plan;
      corrupt_plan.initial_order =
          AntiGreedyCardinalityOrder(greedy_plan.EstimatedCostInputs());

      const AdaptiveOptions opts[kConfigs] = {
          Workbench::NoSwitch(), Workbench::NoSwitch(), Workbench::SwitchBoth()};
      const PipelinePlan* plans[kConfigs] = {&greedy_plan, &corrupt_plan,
                                             &corrupt_plan};

      ConfigResult results[kConfigs];
      for (int c = 0; c < kConfigs; ++c) ExecuteOnce(*plans[c], opts[c]);  // warm-up
      for (size_t rep = 0; rep < std::max<size_t>(flags.reps, 1); ++rep) {
        // Interleaved reps: cache warm-up and frequency drift hit every
        // configuration equally.
        for (int c = 0; c < kConfigs; ++c) {
          results[c].stats = ExecuteOnce(*plans[c], opts[c]);
          results[c].wall_ms.push_back(results[c].stats.wall_seconds * 1000.0);
          results[c].work_units = results[c].stats.work_units;
          results[c].rows_out = results[c].stats.rows_out;
        }
      }
      for (int c = 1; c < kConfigs; ++c) {
        if (results[c].rows_out != results[0].rows_out) {
          std::fprintf(stderr,
                       "ROWS MISMATCH on %s: %s=%llu vs greedy_static=%llu\n",
                       query.name.c_str(), config_names[c],
                       static_cast<unsigned long long>(results[c].rows_out),
                       static_cast<unsigned long long>(results[0].rows_out));
          return 1;
        }
      }

      double ms[kConfigs];
      for (int c = 0; c < kConfigs; ++c) {
        ms[c] = Median(results[c].wall_ms);
        total_ms[c] += ms[c];
        total_wu[c] += static_cast<double>(results[c].work_units);
        QueryRun run;
        run.name = query.name;
        run.wall_ms = ms[c];
        run.work_units = results[c].work_units;
        run.rows_out = results[c].rows_out;
        run.stats = results[c].stats;
        report.AddRun(config_names[c], run);
      }
      const double gap = ms[1] - ms[0];
      std::printf("%-12s %14.3f %14.3f %14.3f %11.0f%%\n", query.name.c_str(),
                  ms[0], ms[1], ms[2],
                  100.0 * (gap > 0 ? (ms[1] - ms[2]) / gap : 1.0));
    }

    auto agg_repair = [](const double* totals) {
      const double gap = totals[1] - totals[0];
      return gap > 0 ? (totals[1] - totals[2]) / gap : 1.0;
    };
    const double rank_wall = agg_repair(total_ms);
    const double rank_wu = agg_repair(total_wu);
    std::printf("  n=%-2zu aggregate: wall repair rank=%.0f%%  |  "
                "work-unit repair rank=%.0f%%\n\n",
                n, 100.0 * rank_wall, 100.0 * rank_wu);
    char metric[64];
    std::snprintf(metric, sizeof metric, "repair_wall_rank_n%zu", n);
    report.AddMetric(metric, rank_wall);
    std::snprintf(metric, sizeof metric, "repair_wu_rank_n%zu", n);
    report.AddMetric(metric, rank_wu);
    if (n >= 10) min_repair_rank = std::min(min_repair_rank, rank_wall);
  }

  report.AddMetric("min_repair_wall_rank_n_ge_10", min_repair_rank);
  const bool curve_ok = min_repair_rank >= 0.5;
  std::printf("repair target (rank repairs >=50%% of the wall gap at every "
              "n>=10): %s\n  worst width: rank=%.0f%%\n",
              curve_ok ? "MET" : "NOT MET", 100.0 * min_repair_rank);
  return curve_ok ? 0 : 1;
}
