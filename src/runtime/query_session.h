// Query sessions: the unit of work the engine schedules.
//
// A QuerySpec describes what to run; Submit() wraps it in a QuerySession —
// the shared state between the submitting thread and the worker that
// executes the query — and returns a QueryHandle, a cheap copyable view of
// the session with future-like semantics: Wait()/WaitFor() block until the
// terminal state, Cancel() requests cooperative cancellation, and the
// QueryResult carries the terminal Status (OK, Cancelled, DeadlineExceeded,
// or a planner/executor error) plus the ExecStats of a completed run.
// Concurrent queries share only the read-only catalog and the engine's
// worker pool: every query scans through its own cursors.
//
// Thread safety: QueryHandle methods may be called from any thread, and
// from several threads at once. The session's result is written exactly
// once, under the session mutex, before `done` is published.

#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "adaptive/controller.h"
#include "common/status.h"
#include "exec/pipeline_executor.h"
#include "optimize/query.h"
#include "common/cancellation.h"

namespace ajr {

/// A query submission.
struct QuerySpec {
  JoinQuery query;
  /// Run-time adaptation knobs for this query.
  AdaptiveOptions adaptive;
  /// Intra-query degree of parallelism: worker pipelines over morsels of
  /// the query's driving scans, the DrivingScans a serial run pulls one
  /// entry at a time (see runtime/parallel_executor.h). <= 1 runs the
  /// serial executor unchanged; larger values are capped at the engine's
  /// worker-pool size.
  size_t dop = 1;
  /// Unused by the engine (it has no shared scan: every query scans through
  /// its own cursors); perfbench sets it.
  bool share_scan = false;
  /// Unused by the engine (it has no probe cache); perfbench sets it.
  bool share_cache = false;
  /// Relative deadline, measured from Submit(); queue wait counts against
  /// it. nullopt = no deadline.
  std::optional<std::chrono::milliseconds> timeout;
  /// Collect projected output rows into QueryResult::rows. Off by default:
  /// heavy result sets should stream through `sink` instead.
  bool collect_rows = false;
  /// Optional streaming sink, invoked on the worker thread for every output
  /// row. May be null. Must be thread-compatible with the caller: the engine
  /// serializes calls per query but different queries run concurrently.
  RowSink sink;
};

/// Lifecycle of a submitted query.
enum class QueryState {
  kQueued,    ///< accepted, waiting for a worker
  kRunning,   ///< planning/executing on a worker
  kDone,      ///< terminal; result available
};

/// Terminal outcome of one query.
struct QueryResult {
  /// OK, Cancelled, DeadlineExceeded, or the planner/executor error.
  Status status;
  /// Executor counters; populated only when status.ok().
  ExecStats stats;
  /// Output rows; populated only when QuerySpec::collect_rows was set.
  std::vector<Row> rows;
};

/// Shared state of one submitted query. Engine-internal; callers interact
/// through QueryHandle.
struct QuerySession {
  uint64_t id = 0;
  std::string name;  ///< JoinQuery::name at submit time
  std::chrono::steady_clock::time_point submit_time;

  CancellationToken token;

  std::mutex mu;
  std::condition_variable cv;
  QueryState state = QueryState::kQueued;
  QueryResult result;  ///< valid once state == kDone
};

/// Future-like, copyable view of a submitted query.
class QueryHandle {
 public:
  QueryHandle() = default;
  explicit QueryHandle(std::shared_ptr<QuerySession> session)
      : session_(std::move(session)) {}

  bool valid() const { return session_ != nullptr; }
  uint64_t id() const { return session_->id; }
  const std::string& name() const { return session_->name; }

  /// Requests cooperative cancellation. A queued query terminates without
  /// running; a running query stops at its next depleted state. Idempotent;
  /// a no-op once the query is done.
  void Cancel() { session_->token.Cancel(); }

  /// Blocks until the query reaches its terminal state; returns the result.
  /// The reference stays valid while any handle to the session exists.
  const QueryResult& Wait() const;

  /// Waits up to `timeout` for completion; true if the query is done.
  bool WaitFor(std::chrono::milliseconds timeout) const;

  bool done() const;
  QueryState state() const;

 private:
  friend class QueryEngine;
  std::shared_ptr<QuerySession> session_;
};

}  // namespace ajr
