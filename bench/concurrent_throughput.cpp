// Concurrent-throughput harness for the query runtime (not a paper figure).
//
// Runs the DMV template mix twice: once serially (the trusted baseline, and
// the per-query row-count oracle) and once through the QueryEngine with N
// workers. Reports QPS and the p50/p95/p99 end-to-end latency, then checks
// that every query produced exactly the serial row count — adaptive
// reordering under concurrency must not change results.
//
// The concurrent pass runs once per intra-query dop in --dops (default
// "1,2"): dop=1 is inter-query parallelism only, higher dops additionally
// split each query's driving scan into morsels across the same worker
// pool, so the axis shows how intra-query parallelism trades against
// query-level concurrency on a fixed pool.
//
//   $ ./build/bench/concurrent_throughput --owners=100000 --workers=8
//         --per-template=30 --dops=1,2,4
//
// Flags: --owners=N --per-template=N --workers=N --seed=N
//        --stats=minimal|base|rich --dops=CSV

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
  size_t workers = 0;  // 0 = hardware concurrency (at least 4)
  std::vector<size_t> dops = {1, 2};  // intra-query dop axis
};

Flags ParseFlags(int argc, char** argv) {
  Flags flags;
  std::vector<char*> passthrough = {argv[0]};
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--workers=", 10) == 0) {
      flags.workers = static_cast<size_t>(std::strtoull(argv[i] + 10, nullptr, 10));
    } else if (std::strncmp(argv[i], "--dops=", 7) == 0) {
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

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t idx = static_cast<size_t>(p * static_cast<double>(v.size() - 1));
  return v[idx];
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags = ParseFlags(argc, argv);
  if (flags.workers == 0) {
    flags.workers = std::max<size_t>(4, std::thread::hardware_concurrency());
  }

  std::printf("Loading DMV (%zu owners)...\n", flags.common.owners);
  Workbench bench(flags.common);
  DmvQueryGenerator gen(&bench.catalog(), flags.common.seed);
  auto queries_or = gen.GenerateMix(flags.common.per_template);
  if (!queries_or.ok()) {
    std::fprintf(stderr, "query generation failed: %s\n",
                 queries_or.status().ToString().c_str());
    return 1;
  }
  const std::vector<JoinQuery>& queries = *queries_or;
  const AdaptiveOptions adaptive = Workbench::SwitchBoth();

  // ---- Serial baseline: one thread, also the row-count oracle. ----
  std::printf("Serial pass: %zu queries...\n", queries.size());
  std::vector<uint64_t> serial_rows(queries.size());
  const auto serial_start = std::chrono::steady_clock::now();
  for (size_t i = 0; i < queries.size(); ++i) {
    auto plan = bench.planner().Plan(queries[i]);
    if (!plan.ok()) {
      std::fprintf(stderr, "planning %s failed: %s\n", queries[i].name.c_str(),
                   plan.status().ToString().c_str());
      return 1;
    }
    PipelineExecutor exec(plan->get(), adaptive);
    auto stats = exec.Execute(nullptr);
    if (!stats.ok()) {
      std::fprintf(stderr, "executing %s failed: %s\n", queries[i].name.c_str(),
                   stats.status().ToString().c_str());
      return 1;
    }
    serial_rows[i] = stats->rows_out;
  }
  const double serial_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - serial_start)
          .count();

  // ---- Concurrent passes through the engine, one per intra-query dop. ----
  const double n = static_cast<double>(queries.size());
  JsonReport report("concurrent_throughput", flags.common);
  report.AddMetric("workers", static_cast<double>(flags.workers));
  report.AddMetric("serial_qps", n / serial_s);

  size_t total_mismatches = 0;
  std::string last_snapshot;
  for (size_t pass = 0; pass < flags.dops.size(); ++pass) {
    const size_t dop = flags.dops[pass];
    std::printf("Concurrent pass: %zu workers, intra-query dop=%zu...\n",
                flags.workers, dop);
    MetricsRegistry metrics;
    QueryEngineOptions eopts;
    eopts.num_workers = flags.workers;
    eopts.planner.stats_tier = flags.common.stats_tier;
    eopts.metrics = &metrics;
    QueryEngine engine(&bench.catalog(), eopts);

    std::vector<QueryHandle> handles;
    handles.reserve(queries.size());
    const auto conc_start = std::chrono::steady_clock::now();
    for (const JoinQuery& q : queries) {
      QuerySpec spec;
      spec.query = q;
      spec.adaptive = adaptive;
      spec.dop = dop;
      auto handle = engine.Submit(std::move(spec));
      if (!handle.ok()) {
        std::fprintf(stderr, "submit failed: %s\n", handle.status().ToString().c_str());
        return 1;
      }
      handles.push_back(*handle);
    }
    size_t mismatches = 0;
    std::vector<double> exec_latency_ms;
    exec_latency_ms.reserve(handles.size());
    for (size_t i = 0; i < handles.size(); ++i) {
      const QueryResult& result = handles[i].Wait();
      if (!result.status.ok()) {
        std::fprintf(stderr, "query %s failed: %s\n", handles[i].name().c_str(),
                     result.status.ToString().c_str());
        return 1;
      }
      exec_latency_ms.push_back(result.stats.wall_seconds * 1000.0);
      if (result.stats.rows_out != serial_rows[i]) {
        ++mismatches;
        std::fprintf(stderr, "ROW MISMATCH dop=%zu %s: serial=%llu concurrent=%llu\n",
                     dop, handles[i].name().c_str(),
                     static_cast<unsigned long long>(serial_rows[i]),
                     static_cast<unsigned long long>(result.stats.rows_out));
      }
    }
    const double conc_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - conc_start)
            .count();
    engine.Shutdown();
    total_mismatches += mismatches;

    // The first dop keeps the historical metric names so old baselines
    // still line up; every pass also records dop-suffixed metrics.
    if (pass == 0) {
      report.AddMetric("concurrent_qps", n / conc_s);
      report.AddMetric("speedup", serial_s / conc_s);
      report.AddMetric("exec_latency_p50_ms", Percentile(exec_latency_ms, 0.50));
      report.AddMetric("exec_latency_p95_ms", Percentile(exec_latency_ms, 0.95));
      report.AddMetric("exec_latency_p99_ms", Percentile(exec_latency_ms, 0.99));
      report.AddMetric("row_mismatches", static_cast<double>(mismatches));
    }
    const std::string suffix = "_dop" + std::to_string(dop);
    report.AddMetric("concurrent_qps" + suffix, n / conc_s);
    report.AddMetric("speedup" + suffix, serial_s / conc_s);
    report.AddMetric("exec_latency_p95_ms" + suffix,
                     Percentile(exec_latency_ms, 0.95));
    const Counter* morsel_counter = metrics.FindCounter("exec.parallel_morsels");
    report.AddMetric("parallel_morsels" + suffix,
                     morsel_counter != nullptr
                         ? static_cast<double>(morsel_counter->value())
                         : 0.0);

    const Histogram* e2e = metrics.FindHistogram("engine.query_latency_us");
    std::printf("\nConcurrent throughput (%zu queries, %zu workers, dop=%zu)\n",
                queries.size(), flags.workers, dop);
    std::printf("  serial        : %.2f s  (%.1f QPS)\n", serial_s, n / serial_s);
    std::printf("  concurrent    : %.2f s  (%.1f QPS, %.2fx)\n", conc_s, n / conc_s,
                serial_s / conc_s);
    std::printf("  exec latency  : p50=%.2f ms  p95=%.2f ms  p99=%.2f ms\n",
                Percentile(exec_latency_ms, 0.50), Percentile(exec_latency_ms, 0.95),
                Percentile(exec_latency_ms, 0.99));
    if (e2e != nullptr) {
      std::printf("  e2e latency   : p50=%.2f ms  p95=%.2f ms  p99=%.2f ms"
                  "  (incl. queue wait)\n",
                  e2e->Quantile(0.50) / 1000.0, e2e->Quantile(0.95) / 1000.0,
                  e2e->Quantile(0.99) / 1000.0);
    }
    std::printf("  row counts    : %s\n",
                mismatches == 0 ? "identical to serial execution"
                                : "MISMATCHES (see above)");
    last_snapshot = metrics.Snapshot();
  }
  std::printf("\nEngine metrics snapshot (last pass):\n%s", last_snapshot.c_str());
  return total_mismatches == 0 ? 0 : 1;
}
