// Intra-query scaling of the morsel-parallel adaptive executor (not a
// paper figure; the paper's Sec 5 runs are single-threaded).
//
// Runs the six-table DMV mix (the longest pipelines, S1/S2) through
// ParallelPipelineExecutor at each requested dop, with adaptation on.
// Reports per-dop throughput and the speedup over dop=1, and checks three
// contracts along the way (exit 1 when any fails):
//
//   * every dop produces exactly the dop=1 row counts (the multiset
//     contract of parallel execution);
//   * dop=1 work units are bit-identical to the plain serial
//     PipelineExecutor (the dop<=1 delegation contract), so this harness
//     doubles as a determinism tripwire for the figure reproductions;
//   * adaptation survives parallelism: no dop >= 2 does more than
//     kMaxParallelWorkRatio times the serial work units. The coordinator's
//     morsel ramp starts at c entries, so the fleet decides about as early
//     as the serial executor; a run that stops adapting does roughly twice
//     the serial work and trips this gate.
//
// Speedup is only meaningful on a machine with real cores: the report
// includes the measured effective core count (bench/harness_util's
// MeasureEffectiveCores) so a dop=8 run on a host that delivers one core
// reads as what it is. Work units are deterministic either way — the
// merged work of the fleet equals serial work plus the (counted) scan
// the dispenser performs, so "work_units_dopN_vs_serial" near 1.0 shows
// parallelism adds no logical work even when wall time cannot drop.
//
//   $ ./build/bench/parallel_scaling --owners=100000 --per-template=20
//         --dops=1,2,4,8 --json
//
// Flags: --owners=N --per-template=N (six-table queries) --reps=N
//        --seed=N --stats=minimal|base|rich --dops=CSV --json[=PATH]

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench/harness_util.h"
#include "runtime/parallel_executor.h"

using namespace ajr;
using namespace ajr::bench;

namespace {

/// Gate: parallel work units over serial work units, for every dop >= 2.
constexpr double kMaxParallelWorkRatio = 1.25;

struct Flags {
  HarnessFlags common;
  std::vector<size_t> dops = {1, 2, 4, 8};
};

Flags ParseFlags(int argc, char** argv) {
  Flags flags;
  std::vector<char*> passthrough = {argv[0]};
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--dops=", 7) == 0) {
      flags.dops.clear();
      for (const char* p = argv[i] + 7; *p != '\0';) {
        char* end = nullptr;
        size_t d = static_cast<size_t>(std::strtoull(p, &end, 10));
        if (end == p) break;
        flags.dops.push_back(std::max<size_t>(1, d));
        p = *end == ',' ? end + 1 : end;
      }
      if (flags.dops.empty()) flags.dops.push_back(1);
    } else {
      passthrough.push_back(argv[i]);
    }
  }
  flags.common =
      HarnessFlags::Parse(static_cast<int>(passthrough.size()), passthrough.data());
  return flags;
}

struct DopResult {
  double wall_s = 0;
  uint64_t work_units = 0;
  uint64_t switches = 0;
  uint64_t morsels = 0;
  size_t mismatches = 0;
};

}  // namespace

int main(int argc, char** argv) {
  Flags flags = ParseFlags(argc, argv);

  std::printf("Loading DMV (%zu owners)...\n", flags.common.owners);
  Workbench bench(flags.common);
  DmvQueryGenerator gen(&bench.catalog(), flags.common.seed);
  auto queries_or = gen.GenerateSixTableMix(flags.common.per_template);
  if (!queries_or.ok()) {
    std::fprintf(stderr, "query generation failed: %s\n",
                 queries_or.status().ToString().c_str());
    return 1;
  }
  const std::vector<JoinQuery>& queries = *queries_or;
  const AdaptiveOptions adaptive = Workbench::SwitchBoth();

  // Plan once per query; plans are shared across dops and reps.
  std::vector<std::unique_ptr<PipelinePlan>> plans;
  for (const JoinQuery& q : queries) {
    auto plan = bench.planner().Plan(q);
    if (!plan.ok()) {
      std::fprintf(stderr, "planning %s failed: %s\n", q.name.c_str(),
                   plan.status().ToString().c_str());
      return 1;
    }
    plans.push_back(std::move(*plan));
  }

  // Serial reference: row counts for every query, and the work units the
  // dop=1 delegation must reproduce exactly.
  std::printf("Serial reference pass: %zu six-table queries...\n", queries.size());
  std::vector<uint64_t> serial_rows(queries.size());
  uint64_t serial_wu = 0;
  for (size_t i = 0; i < queries.size(); ++i) {
    PipelineExecutor exec(plans[i].get(), adaptive);
    auto stats = exec.Execute(nullptr);
    if (!stats.ok()) {
      std::fprintf(stderr, "executing %s failed: %s\n", queries[i].name.c_str(),
                   stats.status().ToString().c_str());
      return 1;
    }
    serial_rows[i] = stats->rows_out;
    serial_wu += stats->work_units;
  }

  const size_t reps = std::max<size_t>(flags.common.reps, 1);
  const double cores = MeasureEffectiveCores();
  const bool speedups_not_meaningful = cores < kMinMeaningfulCores;
  JsonReport report("parallel_scaling", flags.common);
  report.AddMetric("queries", static_cast<double>(queries.size()));

  std::printf("\nIntra-query scaling (%zu queries, %zu reps, "
              "effective cores=%.2f)\n",
              queries.size(), reps, cores);
  std::printf("  %-6s %10s %10s %9s %12s %9s\n", "dop", "wall_s", "qps",
              "speedup", "work_units", "switches");

  double dop1_wall = 0;
  bool dop1_wu_identical = true;
  double max_work_ratio = 0;  // over dops >= 2
  int exit_code = 0;
  for (size_t dop : flags.dops) {
    DopResult best;  // median-of-reps by wall time
    std::vector<double> walls;
    for (size_t rep = 0; rep < reps; ++rep) {
      DopResult r;
      const auto start = std::chrono::steady_clock::now();
      for (size_t i = 0; i < queries.size(); ++i) {
        ParallelExecOptions popts;
        popts.dop = dop;
        ParallelPipelineExecutor exec(plans[i].get(), adaptive, popts);
        auto stats = exec.Execute(nullptr);
        if (!stats.ok()) {
          std::fprintf(stderr, "dop=%zu %s failed: %s\n", dop,
                       queries[i].name.c_str(),
                       stats.status().ToString().c_str());
          return 1;
        }
        r.work_units += stats->work_units;
        r.switches += stats->driving_switches + stats->inner_reorders;
        r.morsels += stats->morsels;
        if (stats->rows_out != serial_rows[i]) {
          ++r.mismatches;
          std::fprintf(stderr, "ROW MISMATCH dop=%zu %s: serial=%llu got=%llu\n",
                       dop, queries[i].name.c_str(),
                       static_cast<unsigned long long>(serial_rows[i]),
                       static_cast<unsigned long long>(stats->rows_out));
        }
      }
      r.wall_s = std::chrono::duration<double>(
                     std::chrono::steady_clock::now() - start)
                     .count();
      walls.push_back(r.wall_s);
      if (rep == 0 || r.wall_s < best.wall_s) best = r;
    }
    std::sort(walls.begin(), walls.end());
    best.wall_s = walls[walls.size() / 2];

    if (dop == 1) {
      dop1_wall = best.wall_s;
      dop1_wu_identical = best.work_units == serial_wu;
      if (!dop1_wu_identical) {
        std::fprintf(stderr,
                     "DETERMINISM VIOLATION: dop=1 work units %llu != serial %llu\n",
                     static_cast<unsigned long long>(best.work_units),
                     static_cast<unsigned long long>(serial_wu));
      }
    }
    if (best.mismatches > 0) exit_code = 1;

    const double qps = static_cast<double>(queries.size()) / best.wall_s;
    const double speedup = dop1_wall > 0 ? dop1_wall / best.wall_s : 1.0;
    const double work_ratio =
        serial_wu > 0 ? static_cast<double>(best.work_units) /
                            static_cast<double>(serial_wu)
                      : 0.0;
    if (dop >= 2) max_work_ratio = std::max(max_work_ratio, work_ratio);
    std::printf("  %-6zu %10.3f %10.1f %8.2fx %12llu %9llu%s\n", dop,
                best.wall_s, qps, speedup,
                static_cast<unsigned long long>(best.work_units),
                static_cast<unsigned long long>(best.switches),
                best.mismatches > 0 ? "  MISMATCH" : "");

    const std::string suffix = "_dop" + std::to_string(dop);
    report.AddMetric("wall_s" + suffix, best.wall_s);
    report.AddMetric("qps" + suffix, qps);
    report.AddMetric("speedup" + suffix, speedup);
    report.AddMetric("work_units" + suffix, static_cast<double>(best.work_units));
    report.AddMetric("work_units" + suffix + "_vs_serial", work_ratio);
    report.AddMetric("order_switches" + suffix, static_cast<double>(best.switches));
    report.AddMetric("morsels" + suffix, static_cast<double>(best.morsels));
    report.AddMetric("row_mismatches" + suffix, static_cast<double>(best.mismatches));
  }
  report.AddMetric("dop1_work_unit_identity", dop1_wu_identical ? 1.0 : 0.0);
  report.AddMetric("max_work_units_vs_serial", max_work_ratio);
  // Machine-readable twin of the WARNING below: bench_delta.py skips dop>1
  // wall-time comparisons when either side carries this marker.
  report.AddMetric("speedups_not_meaningful", speedups_not_meaningful ? 1.0 : 0.0);
  if (!dop1_wu_identical) exit_code = 1;
  const bool work_ok = max_work_ratio <= kMaxParallelWorkRatio;
  if (!work_ok) exit_code = 1;

  std::printf("\n  dop=1 work units %s the serial executor's (%llu)\n",
              dop1_wu_identical ? "match" : "DO NOT match",
              static_cast<unsigned long long>(serial_wu));
  std::printf("  parallel work target (every dop>=2 within %.2fx serial): %s\n"
              "    worst dop: %.2fx\n",
              kMaxParallelWorkRatio, work_ok ? "MET" : "NOT MET",
              max_work_ratio);
  if (speedups_not_meaningful) {
    std::printf("WARNING: %.2f effective cores, speedups not meaningful\n", cores);
    std::printf("  work-unit parity is the meaningful check on this machine\n");
  }
  return exit_code;
}
