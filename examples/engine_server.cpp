// Engine server demo: the concurrent query runtime end to end.
//
//   $ ./build/examples/engine_server [--dop=N] [--policy=rank|regret|static]
//                                    [--share=off|scan|cache|both]
//
// Builds a small DMV database, starts a QueryEngine with four workers, and
// plays a short serving scenario: a burst of template queries answered
// concurrently, one query cancelled mid-flight, one submitted with a
// deadline it cannot meet. With --dop=N each query additionally runs
// morsel-parallel: N worker pipelines split the driving scan and share
// run-time reoptimization through a common coordinator. With --share the
// burst's queries attach to the engine's cross-query sharing surfaces:
// `scan` rides one physical driving-scan pass per table across concurrent
// queries (runtime/shared_scan.h), `cache` pools probe results in the
// striped SharedProbeCache, `both` enables the two together. Finishes with
// the engine's metrics snapshot — the process-wide view of everything that
// just happened, including how often the adaptive executor reordered
// joins across the workload and how effective parallelism and sharing were.

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <thread>

#include "adaptive/policy.h"
#include "common/metrics.h"
#include "runtime/query_engine.h"
#include "workload/dmv.h"
#include "workload/templates.h"

using namespace ajr;

namespace {

Status Run(size_t dop, PolicyKind policy, bool share_scan, bool share_cache) {
  // 1. Build phase: load the catalog before serving (the engine's
  //    thread-safety contract: no catalog writes while queries run).
  std::printf("loading DMV data set...\n");
  Catalog catalog;
  DmvConfig config;
  config.num_owners = 20000;
  AJR_RETURN_IF_ERROR(GenerateDmv(&catalog, config).status());

  // 2. Serve phase: a four-worker engine with a private metrics registry.
  MetricsRegistry metrics;
  QueryEngineOptions options;
  options.num_workers = 4;
  options.metrics = &metrics;
  QueryEngine engine(&catalog, options);
  DmvQueryGenerator gen(&catalog);

  // 3. A burst of concurrent queries: two instances of each template.
  const char* share_name = share_scan && share_cache ? "both"
                           : share_scan              ? "scan"
                           : share_cache             ? "cache"
                                                     : "off";
  std::printf("serving a burst of 10 template queries on %zu workers"
              " (intra-query dop=%zu, policy=%s, share=%s)...\n",
              engine.num_workers(), dop, PolicyKindName(policy), share_name);
  std::vector<QueryHandle> burst;
  for (int template_id = 1; template_id <= kNumFourTableTemplates; ++template_id) {
    for (size_t variant = 0; variant < 2; ++variant) {
      // With sharing on, the two instances of a template are identical —
      // concurrent identical queries are the traffic shape scan/cache
      // sharing exists for (a dashboard refreshed by many clients).
      const size_t v = share_scan || share_cache ? 0 : variant;
      AJR_ASSIGN_OR_RETURN(JoinQuery q, gen.Generate(template_id, v));
      QuerySpec spec;
      spec.query = std::move(q);
      spec.adaptive.policy = policy;
      spec.dop = dop;
      spec.share_scan = share_scan;
      spec.share_cache = share_cache;
      AJR_ASSIGN_OR_RETURN(QueryHandle h, engine.Submit(std::move(spec)));
      burst.push_back(std::move(h));
    }
  }
  for (const QueryHandle& h : burst) {
    const QueryResult& r = h.Wait();
    std::printf("  %-7s %-18s rows=%-7llu switches=%llu\n", h.name().c_str(),
                r.status.ToString().c_str(),
                static_cast<unsigned long long>(r.stats.rows_out),
                static_cast<unsigned long long>(r.stats.order_switches()));
  }

  // 4. Cancellation: stop a running query from the submitting thread.
  AJR_ASSIGN_OR_RETURN(JoinQuery cancel_me, gen.Generate(3, 7));
  QuerySpec cancel_spec;
  cancel_spec.query = std::move(cancel_me);
  cancel_spec.adaptive.policy = policy;
  AJR_ASSIGN_OR_RETURN(QueryHandle cancelled, engine.Submit(std::move(cancel_spec)));
  cancelled.Cancel();
  std::printf("cancelled query  -> %s\n",
              cancelled.Wait().status.ToString().c_str());

  // 5. Deadline: a query that cannot finish in 1 microsecond times out with
  //    a distinct status.
  AJR_ASSIGN_OR_RETURN(JoinQuery slow, gen.Generate(1, 11));
  QuerySpec deadline_spec;
  deadline_spec.query = std::move(slow);
  deadline_spec.adaptive.policy = policy;
  deadline_spec.timeout = std::chrono::milliseconds(0);
  AJR_ASSIGN_OR_RETURN(QueryHandle timed_out, engine.Submit(std::move(deadline_spec)));
  std::printf("deadline query   -> %s\n",
              timed_out.Wait().status.ToString().c_str());

  engine.Shutdown();
  std::printf("\nmetrics snapshot:\n%s", metrics.Snapshot().c_str());

  auto counter = [&metrics](const char* name) -> uint64_t {
    const Counter* c = metrics.FindCounter(name);
    return c != nullptr ? c->value() : 0;
  };

  // 6. Parallel effectiveness: how much intra-query parallelism the fleet
  //    actually achieved. parallel_workers counts workers that processed
  //    at least one morsel, so workers-per-query below the configured dop
  //    means the pool was busy (the lease degrades instead of blocking) or
  //    the scans were too short to split.
  uint64_t pqueries = counter("exec.parallel_queries");
  uint64_t pworkers = counter("exec.parallel_workers");
  uint64_t pmorsels = counter("exec.parallel_morsels");
  uint64_t pfolds = counter("exec.parallel_monitor_folds");
  if (pqueries > 0) {
    std::printf("parallel path: %llu morsel-parallel queries, "
                "%.1f workers/query (dop=%zu), %.1f morsels/query, "
                "%llu monitor folds\n",
                (unsigned long long)pqueries,
                static_cast<double>(pworkers) / static_cast<double>(pqueries),
                dop,
                static_cast<double>(pmorsels) / static_cast<double>(pqueries),
                (unsigned long long)pfolds);
    if (dop > 1 && std::thread::hardware_concurrency() <= 1) {
      std::printf("WARNING: hardware_concurrency=1, speedups not meaningful\n");
    }
  } else {
    std::printf("parallel path: unused (dop=%zu); rerun with --dop=4 to "
                "split each driving scan across the worker pool\n", dop);
  }

  // 7. Sharing effectiveness: how much of the burst's physical work the
  //    cross-query surfaces absorbed. Scan passes per query < 1.0 means
  //    concurrent (or repeated) queries rode passes someone else produced;
  //    the shared-cache hit rate is probes answered without any descent.
  if (share_scan || share_cache) {
    uint64_t attaches = counter("exec.shared_scan_attaches");
    uint64_t passes_saved = counter("exec.shared_scan_passes_saved");
    uint64_t produced = counter("exec.shared_scan_morsels_produced");
    uint64_t consumed = counter("exec.shared_scan_morsels_consumed");
    uint64_t shits = counter("exec.probe_cache_shared_hits");
    uint64_t smisses = counter("exec.probe_cache_shared_misses");
    uint64_t sconf = counter("exec.probe_cache_shared_stripe_conflicts");
    std::printf("sharing [%s]: %llu scan attaches, %llu full passes saved, "
                "%.2f scan passes/query",
                share_name, (unsigned long long)attaches,
                (unsigned long long)passes_saved,
                consumed > 0 ? static_cast<double>(produced) /
                                   static_cast<double>(consumed)
                             : 0.0);
    if (share_cache) {
      std::printf(", shared-cache hit rate %.1f%% (%llu stripe conflicts)",
                  shits + smisses > 0
                      ? 100.0 * static_cast<double>(shits) /
                            static_cast<double>(shits + smisses)
                      : 0.0,
                  (unsigned long long)sconf);
    }
    std::printf("\n");
  } else {
    std::printf("sharing: off; rerun with --share=both to pool driving-scan "
                "passes and probe results across the burst\n");
  }
  return Status::OK();
}

}  // namespace

int main(int argc, char** argv) {
  size_t dop = 1;
  PolicyKind policy = PolicyKind::kRank;
  bool share_scan = false, share_cache = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--dop=", 6) == 0) {
      dop = static_cast<size_t>(std::strtoull(argv[i] + 6, nullptr, 10));
      if (dop == 0) dop = 1;
    } else if (std::strncmp(argv[i], "--policy=", 9) == 0) {
      auto parsed = ParsePolicyKind(argv[i] + 9);
      if (!parsed.has_value()) {
        std::fprintf(stderr, "unknown policy: %s (rank|regret|static)\n",
                     argv[i] + 9);
        return 2;
      }
      policy = *parsed;
    } else if (std::strncmp(argv[i], "--share=", 8) == 0) {
      const char* mode = argv[i] + 8;
      if (std::strcmp(mode, "off") == 0) {
        share_scan = share_cache = false;
      } else if (std::strcmp(mode, "scan") == 0) {
        share_scan = true;
        share_cache = false;
      } else if (std::strcmp(mode, "cache") == 0) {
        share_scan = false;
        share_cache = true;
      } else if (std::strcmp(mode, "both") == 0) {
        share_scan = share_cache = true;
      } else {
        std::fprintf(stderr, "unknown share mode: %s (off|scan|cache|both)\n",
                     mode);
        return 2;
      }
    } else {
      std::fprintf(stderr,
                   "unknown flag: %s (usage: %s [--dop=N]"
                   " [--policy=rank|regret|static]"
                   " [--share=off|scan|cache|both])\n",
                   argv[i], argv[0]);
      return 2;
    }
  }
  Status status = Run(dop, policy, share_scan, share_cache);
  if (!status.ok()) {
    std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
    return 1;
  }
  return 0;
}
