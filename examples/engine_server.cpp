// Engine server demo: the concurrent query runtime end to end.
//
//   $ ./build/examples/engine_server [--dop=N]
//
// Builds a small DMV database, starts a QueryEngine with four workers, and
// plays a short serving scenario: a burst of template queries answered
// concurrently, one query cancelled mid-flight, one submitted with a
// deadline it cannot meet. With --dop=N each query additionally runs
// morsel-parallel: N worker pipelines split the driving scan and share
// run-time reoptimization through a common coordinator. Finishes with the
// engine's metrics snapshot — the process-wide view of everything that
// just happened, including how often the adaptive executor reordered
// joins across the workload and how effective parallelism was.

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <thread>

#include "common/metrics.h"
#include "runtime/query_engine.h"
#include "workload/dmv.h"
#include "workload/templates.h"

using namespace ajr;

namespace {

Status Run(size_t dop) {
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
  std::printf("serving a burst of 10 template queries on %zu workers"
              " (intra-query dop=%zu)...\n",
              engine.num_workers(), dop);
  std::vector<QueryHandle> burst;
  for (int template_id = 1; template_id <= kNumFourTableTemplates; ++template_id) {
    for (size_t variant = 0; variant < 2; ++variant) {
      AJR_ASSIGN_OR_RETURN(JoinQuery q, gen.Generate(template_id, variant));
      QuerySpec spec;
      spec.query = std::move(q);
      spec.dop = dop;
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
  AJR_ASSIGN_OR_RETURN(QueryHandle cancelled, engine.Submit(std::move(cancel_spec)));
  cancelled.Cancel();
  std::printf("cancelled query  -> %s\n",
              cancelled.Wait().status.ToString().c_str());

  // 5. Deadline: a query that cannot finish in 1 microsecond times out with
  //    a distinct status.
  AJR_ASSIGN_OR_RETURN(JoinQuery slow, gen.Generate(1, 11));
  QuerySpec deadline_spec;
  deadline_spec.query = std::move(slow);
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
  return Status::OK();
}

}  // namespace

int main(int argc, char** argv) {
  size_t dop = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--dop=", 6) == 0) {
      dop = static_cast<size_t>(std::strtoull(argv[i] + 6, nullptr, 10));
      if (dop == 0) dop = 1;
    } else {
      std::fprintf(stderr,
                   "unknown flag: %s (usage: %s [--dop=N])\n",
                   argv[i], argv[0]);
      return 2;
    }
  }
  Status status = Run(dop);
  if (!status.ok()) {
    std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
    return 1;
  }
  return 0;
}
