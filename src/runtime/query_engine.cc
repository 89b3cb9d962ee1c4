#include "runtime/query_engine.h"

#include <algorithm>
#include <thread>
#include <utility>

#include "runtime/parallel_executor.h"

namespace ajr {

namespace {

size_t ResolveWorkers(size_t requested) {
  if (requested > 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 4 : hw;
}

uint64_t MicrosSince(std::chrono::steady_clock::time_point start) {
  const auto d = std::chrono::steady_clock::now() - start;
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(d).count());
}

}  // namespace

QueryEngine::QueryEngine(const Catalog* catalog, QueryEngineOptions options)
    : catalog_(catalog),
      planner_(catalog, options.planner),
      metrics_(options.metrics != nullptr ? options.metrics
                                          : &MetricsRegistry::Global()),
      pool_(ResolveWorkers(options.num_workers)) {
  m_.submitted = metrics_->GetCounter("engine.queries_submitted");
  m_.started = metrics_->GetCounter("engine.queries_started");
  m_.finished = metrics_->GetCounter("engine.queries_finished");
  m_.cancelled = metrics_->GetCounter("engine.queries_cancelled");
  m_.timed_out = metrics_->GetCounter("engine.queries_timed_out");
  m_.failed = metrics_->GetCounter("engine.queries_failed");
  m_.rows_out = metrics_->GetCounter("engine.rows_out");
  m_.work_units = metrics_->GetCounter("engine.work_units");
  m_.inner_reorders = metrics_->GetCounter("engine.inner_reorders");
  m_.driving_switches = metrics_->GetCounter("engine.driving_switches");
  m_.latency_us = metrics_->GetHistogram("engine.query_latency_us");
  m_.queue_wait_us = metrics_->GetHistogram("engine.queue_wait_us");
}

QueryEngine::~QueryEngine() { Shutdown(); }

StatusOr<QueryHandle> QueryEngine::Submit(QuerySpec spec) {
  AJR_RETURN_IF_ERROR(spec.query.Validate());

  auto session = std::make_shared<QuerySession>();
  session->id = next_query_id_.fetch_add(1, std::memory_order_relaxed);
  session->name = spec.query.name;
  session->submit_time = std::chrono::steady_clock::now();
  if (spec.timeout.has_value()) {
    session->token.set_deadline(session->submit_time + *spec.timeout);
  }

  // The task owns the spec; the handle shares only the session.
  auto task = [this, session,
               spec = std::make_shared<QuerySpec>(std::move(spec))]() mutable {
    RunQuery(session, *spec);
  };
  if (!pool_.Submit(std::move(task))) {
    return Status::Internal("QueryEngine is shut down");
  }
  m_.submitted->Add();
  return QueryHandle(session);
}

void QueryEngine::Shutdown() { pool_.Shutdown(); }

void QueryEngine::RunQuery(const std::shared_ptr<QuerySession>& session,
                           QuerySpec& spec) {
  {
    std::lock_guard<std::mutex> lock(session->mu);
    session->state = QueryState::kRunning;
  }
  m_.started->Add();
  m_.queue_wait_us->Record(MicrosSince(session->submit_time));

  QueryResult result;

  // A query cancelled (or expired) while queued never touches the planner.
  const StopReason queued_stop = session->token.Check();
  if (queued_stop != StopReason::kNone) {
    result.status = CancellationToken::ToStatus(queued_stop);
    FinishQuery(session, std::move(result));
    return;
  }

  auto plan_or = planner_.Plan(spec.query);
  if (!plan_or.ok()) {
    result.status = plan_or.status();
    FinishQuery(session, std::move(result));
    return;
  }
  const std::unique_ptr<PipelinePlan> plan = std::move(plan_or).value();

  // Intra-query parallelism: extra workers are leased from the same pool
  // this query runs on (a busy pool degrades the dop instead of blocking),
  // so the cap is the pool size, not pool size + 1 for the caller's thread.
  ParallelExecOptions parallel;
  parallel.dop = std::min(std::max<size_t>(1, spec.dop), pool_.num_threads());
  parallel.pool = &pool_;
  ParallelPipelineExecutor executor(plan.get(), spec.adaptive, parallel);
  executor.set_cancellation_token(&session->token);
  executor.set_metrics(metrics_);

  RowSink sink;
  if (spec.collect_rows && spec.sink) {
    sink = [&result, user = &spec.sink](const Row& row) {
      result.rows.push_back(row);
      (*user)(row);
    };
  } else if (spec.collect_rows) {
    sink = [&result](const Row& row) { result.rows.push_back(row); };
  } else {
    sink = spec.sink;  // may be null: count-only execution
  }

  auto stats_or = executor.Execute(sink);
  if (stats_or.ok()) {
    result.status = Status::OK();
    result.stats = std::move(stats_or).value();
    m_.rows_out->Add(result.stats.rows_out);
    m_.work_units->Add(result.stats.work_units);
    m_.inner_reorders->Add(result.stats.inner_reorders);
    m_.driving_switches->Add(result.stats.driving_switches);
  } else {
    result.status = stats_or.status();
    result.rows.clear();  // a stopped query's partial rows are not a result
  }
  FinishQuery(session, std::move(result));
}

void QueryEngine::FinishQuery(const std::shared_ptr<QuerySession>& session,
                              QueryResult result) {
  switch (result.status.code()) {
    case StatusCode::kOk:
      m_.finished->Add();
      break;
    case StatusCode::kCancelled:
      m_.cancelled->Add();
      break;
    case StatusCode::kDeadlineExceeded:
      m_.timed_out->Add();
      break;
    default:
      m_.failed->Add();
      break;
  }
  m_.latency_us->Record(MicrosSince(session->submit_time));
  {
    std::lock_guard<std::mutex> lock(session->mu);
    session->result = std::move(result);
    session->state = QueryState::kDone;
  }
  session->cv.notify_all();
}

}  // namespace ajr
