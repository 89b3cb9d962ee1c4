// Shared-traffic harness: closed-loop concurrent identical queries with
// cross-query scan sharing off vs on (not a paper figure — the engine's
// SharedScanRegistry under the traffic shape it exists for: many clients
// refreshing the same dashboard query at once).
//
// M client threads each submit the same DMV template query `per-client`
// times back to back (closed loop) through one QueryEngine. The OFF pass
// runs every query isolated; the SHARED pass attaches every query's driving
// scans to the engine's scan registry. Both passes run the same
// total query count on the same pool, interleaved across `--reps` rounds
// (fresh engine per round: the sharing benefit measured is strictly
// intra-round). Reported:
//
//   * aggregate throughput (QPS) per mode and the shared/off ratio —
//     acceptance target >= 1.5x at M=8 on multi-core hardware;
//   * scan passes per query = shared-scan morsels physically produced /
//     morsels consumed (< 1.0 means queries rode passes others paid for);
//   * row-count verification of every query against the serial oracle.
//
// On a host that measures under 1.5 effective cores (MeasureEffectiveCores)
// the ratio is stamped `speedups_not_meaningful` (same marker as
// bench/parallel_scaling; scripts/bench_delta.py then skips the gated
// comparison) — sharing still saves work there, but the wall-clock ratio
// measures the scheduler, not the feature.
//
// Flags: --workers=N --concurrent=M --per-client=N plus the common set
//        (--owners, --reps, --dop, --seed, --json[=PATH], ...).

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <thread>
#include <vector>

#include "bench/harness_util.h"
#include "common/metrics.h"
#include "runtime/query_engine.h"

using namespace ajr;
using namespace ajr::bench;

namespace {

struct Flags {
  HarnessFlags common;
  size_t workers = 0;     // 0 = hardware concurrency (at least 4)
  size_t concurrent = 8;  // M closed-loop clients
  size_t per_client = 4;  // queries each client submits per round
};

Flags ParseFlags(int argc, char** argv) {
  Flags flags;
  std::vector<char*> passthrough = {argv[0]};
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--workers=", 10) == 0) {
      flags.workers = static_cast<size_t>(std::strtoull(argv[i] + 10, nullptr, 10));
    } else if (std::strncmp(argv[i], "--concurrent=", 13) == 0) {
      flags.concurrent =
          std::max<size_t>(1, std::strtoull(argv[i] + 13, nullptr, 10));
    } else if (std::strncmp(argv[i], "--per-client=", 13) == 0) {
      flags.per_client =
          std::max<size_t>(1, std::strtoull(argv[i] + 13, nullptr, 10));
    } else {
      passthrough.push_back(argv[i]);
    }
  }
  flags.common =
      HarnessFlags::Parse(static_cast<int>(passthrough.size()), passthrough.data());
  return flags;
}

/// Cumulative outcome of one sharing mode across all rounds.
struct ModeResult {
  double total_s = 0;
  uint64_t mismatches = 0;
  uint64_t attaches = 0;
  uint64_t passes_saved = 0;
  uint64_t morsels_produced = 0;
  uint64_t morsels_consumed = 0;

  double passes_per_query() const {
    return morsels_consumed > 0 ? static_cast<double>(morsels_produced) /
                                      static_cast<double>(morsels_consumed)
                                : 1.0;
  }
};

}  // namespace

int main(int argc, char** argv) {
  Flags flags = ParseFlags(argc, argv);
  if (flags.workers == 0) {
    flags.workers = std::max<size_t>(4, std::thread::hardware_concurrency());
  }

  std::printf("Loading DMV (%zu owners)...\n", flags.common.owners);
  Workbench bench(flags.common);
  DmvQueryGenerator gen(&bench.catalog(), flags.common.seed);
  auto query_or = gen.Generate(1, 0);
  if (!query_or.ok()) {
    std::fprintf(stderr, "query generation failed: %s\n",
                 query_or.status().ToString().c_str());
    return 1;
  }
  const JoinQuery query = *query_or;
  const AdaptiveOptions adaptive = Workbench::SwitchBoth();

  // Serial oracle: the row count every concurrent run must reproduce.
  uint64_t oracle_rows = 0;
  {
    auto plan = bench.planner().Plan(query);
    if (!plan.ok()) {
      std::fprintf(stderr, "planning failed: %s\n",
                   plan.status().ToString().c_str());
      return 1;
    }
    PipelineExecutor exec(plan->get(), adaptive);
    auto stats = exec.Execute(nullptr);
    if (!stats.ok()) {
      std::fprintf(stderr, "serial oracle failed: %s\n",
                   stats.status().ToString().c_str());
      return 1;
    }
    oracle_rows = stats->rows_out;
  }

  const size_t queries_per_round = flags.concurrent * flags.per_client;
  auto run_round = [&](bool share, ModeResult* mode) -> bool {
    MetricsRegistry metrics;
    QueryEngineOptions eopts;
    eopts.num_workers = flags.workers;
    eopts.planner.stats_tier = flags.common.stats_tier;
    eopts.metrics = &metrics;
    QueryEngine engine(&bench.catalog(), eopts);

    std::vector<uint64_t> client_mismatches(flags.concurrent, 0);
    std::vector<bool> client_errors(flags.concurrent, false);
    const auto t0 = std::chrono::steady_clock::now();
    std::vector<std::thread> clients;
    for (size_t c = 0; c < flags.concurrent; ++c) {
      clients.emplace_back([&, c] {
        for (size_t i = 0; i < flags.per_client; ++i) {
          QuerySpec spec;
          spec.query = query;
          spec.adaptive = adaptive;
          spec.dop = flags.common.dop;
          spec.share_scan = share;
          auto handle = engine.Submit(std::move(spec));
          if (!handle.ok()) {
            client_errors[c] = true;
            return;
          }
          const QueryResult& result = handle->Wait();
          if (!result.status.ok()) {
            client_errors[c] = true;
            return;
          }
          if (result.stats.rows_out != oracle_rows) ++client_mismatches[c];
        }
      });
    }
    for (std::thread& t : clients) t.join();
    mode->total_s +=
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    engine.Shutdown();

    for (size_t c = 0; c < flags.concurrent; ++c) {
      if (client_errors[c]) {
        std::fprintf(stderr, "client %zu failed (share=%d)\n", c, share ? 1 : 0);
        return false;
      }
      mode->mismatches += client_mismatches[c];
    }
    auto counter = [&metrics](const char* name) -> uint64_t {
      const Counter* c = metrics.FindCounter(name);
      return c != nullptr ? c->value() : 0;
    };
    mode->attaches += counter("exec.shared_scan_attaches");
    mode->passes_saved += counter("exec.shared_scan_passes_saved");
    mode->morsels_produced += counter("exec.shared_scan_morsels_produced");
    mode->morsels_consumed += counter("exec.shared_scan_morsels_consumed");
    return true;
  };

  std::printf("Closed loop: %zu clients x %zu queries, %zu engine workers, "
              "dop=%zu, %zu rounds per mode...\n",
              flags.concurrent, flags.per_client, flags.workers,
              flags.common.dop, flags.common.reps);
  ModeResult off, shared;
  for (size_t round = 0; round < flags.common.reps; ++round) {
    if (!run_round(/*share=*/false, &off)) return 1;
    if (!run_round(/*share=*/true, &shared)) return 1;
  }

  const double total_queries =
      static_cast<double>(queries_per_round * flags.common.reps);
  const double off_qps = total_queries / off.total_s;
  const double shared_qps = total_queries / shared.total_s;
  const double ratio = shared_qps / off_qps;
  const double cores = MeasureEffectiveCores();
  const bool speedups_not_meaningful = cores < kMinMeaningfulCores;

  std::printf("\n== Shared traffic: %zu concurrent identical queries ==\n",
              flags.concurrent);
  std::printf("%-12s %10s %10s %16s\n", "mode", "QPS", "ratio", "passes/query");
  std::printf("%-12s %10.1f %10s %16.2f\n", "share-off", off_qps, "1.00x", 1.0);
  std::printf("%-12s %10.1f %9.2fx %16.2f\n", "share-scan", shared_qps, ratio,
              shared.passes_per_query());
  std::printf("\n  scan attaches     : %llu (%llu full passes saved)\n",
              (unsigned long long)shared.attaches,
              (unsigned long long)shared.passes_saved);
  std::printf("  row counts        : %s\n",
              off.mismatches + shared.mismatches == 0
                  ? "all equal to the serial oracle"
                  : "MISMATCH");
  std::printf("  shared speedup    : %.2fx  (target >= 1.50x)  [%s]\n", ratio,
              speedups_not_meaningful ? "not meaningful on this host"
              : ratio >= 1.5          ? "ok"
                                      : "below target");
  if (speedups_not_meaningful) {
    std::printf("WARNING: %.2f effective cores, speedups not meaningful\n", cores);
  }

  JsonReport report("shared_traffic", flags.common);
  report.AddMetric("workers", static_cast<double>(flags.workers));
  report.AddMetric("concurrent_clients", static_cast<double>(flags.concurrent));
  report.AddMetric("qps_share_off", off_qps);
  report.AddMetric("qps_share_scan", shared_qps);
  report.AddMetric("shared_speedup", ratio);
  report.AddMetric("passes_per_query", shared.passes_per_query());
  report.AddMetric("shared_scan_attaches", static_cast<double>(shared.attaches));
  report.AddMetric("shared_scan_passes_saved",
                   static_cast<double>(shared.passes_saved));
  report.AddMetric("row_mismatches",
                   static_cast<double>(off.mismatches + shared.mismatches));
  report.AddMetric("speedups_not_meaningful", speedups_not_meaningful ? 1.0 : 0.0);
  return off.mismatches + shared.mismatches == 0 ? 0 : 1;
}
