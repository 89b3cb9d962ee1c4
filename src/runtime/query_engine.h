// QueryEngine: the concurrent query runtime.
//
// The engine owns a fixed-size worker pool and a planner over one shared
// catalog. Submit() accepts a QuerySpec, immediately returns a QueryHandle,
// and runs the query on a worker: plan -> PipelineExecutor -> result, with
// cooperative cancellation and deadline enforcement polled at the
// executor's depleted states. Per-query ExecStats are folded into a
// MetricsRegistry so adaptation behaviour (inner reorders, driving
// switches, work units) stays observable across a concurrent workload.
//
// Thread safety: Submit() may be called from any thread. The catalog must
// not be mutated (DDL, loads, index builds, ANALYZE) while the engine is
// serving queries — the read paths of Catalog/HeapTable/BPlusTree are
// const and safely shareable, but writes are unsynchronized by design (see
// the per-class contracts in catalog/ and storage/). Build, then serve.

#pragma once

#include <atomic>
#include <cstdint>
#include <memory>

#include "catalog/catalog.h"
#include "common/metrics.h"
#include "common/status.h"
#include "optimize/planner.h"
#include "runtime/query_session.h"
#include "runtime/thread_pool.h"

namespace ajr {

/// Engine construction knobs.
struct QueryEngineOptions {
  /// Worker threads; 0 = std::thread::hardware_concurrency().
  size_t num_workers = 0;
  /// Statistics tier etc. for the shared planner.
  PlannerOptions planner;
  /// Metrics sink; nullptr = MetricsRegistry::Global().
  MetricsRegistry* metrics = nullptr;
};

/// Multi-query runtime over one catalog.
class QueryEngine {
 public:
  /// `catalog` must outlive the engine and stay read-only while serving.
  explicit QueryEngine(const Catalog* catalog, QueryEngineOptions options = {});
  /// Calls Shutdown().
  ~QueryEngine();

  QueryEngine(const QueryEngine&) = delete;
  QueryEngine& operator=(const QueryEngine&) = delete;

  /// Validates and enqueues `spec`. Fails fast (without enqueueing) on an
  /// invalid query or an engine that has shut down.
  StatusOr<QueryHandle> Submit(QuerySpec spec);

  /// Stops accepting queries, runs everything queued, joins workers.
  /// Pending queries still honour their tokens: Cancel() them first for a
  /// fast shutdown. Idempotent.
  void Shutdown();

  size_t num_workers() const { return pool_.num_threads(); }
  MetricsRegistry& metrics() const { return *metrics_; }
  const Planner& planner() const { return planner_; }

 private:
  /// Pre-resolved metric handles (one map lookup each at construction).
  struct EngineMetrics {
    Counter* submitted;
    Counter* started;
    Counter* finished;
    Counter* cancelled;
    Counter* timed_out;
    Counter* failed;
    Counter* rows_out;
    Counter* work_units;
    Counter* inner_reorders;
    Counter* driving_switches;
    Histogram* latency_us;
    Histogram* queue_wait_us;
  };

  void RunQuery(const std::shared_ptr<QuerySession>& session, QuerySpec& spec);
  void FinishQuery(const std::shared_ptr<QuerySession>& session,
                   QueryResult result);

  const Catalog* catalog_;
  Planner planner_;
  MetricsRegistry* metrics_;
  EngineMetrics m_;
  std::atomic<uint64_t> next_query_id_{1};
  // Last member: destroyed (joined) first, while the planner and metrics
  // are still alive for in-flight queries.
  ThreadPool pool_;
};

}  // namespace ajr
