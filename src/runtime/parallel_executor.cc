#include "runtime/parallel_executor.h"

#include <algorithm>
#include <chrono>
#include <mutex>
#include <optional>
#include <thread>

#include "exec/adaptive_coordinator.h"
#include "runtime/worker_lease.h"

namespace ajr {

ParallelPipelineExecutor::ParallelPipelineExecutor(const PipelinePlan* plan,
                                                   AdaptiveOptions options,
                                                   ParallelExecOptions parallel)
    : plan_(plan), options_(options), parallel_(parallel) {}

StatusOr<ExecStats> ParallelPipelineExecutor::Execute(const RowSink& sink) {
  if (executed_) {
    return Status::Internal(
        "ParallelPipelineExecutor is single-use: Execute() was already called");
  }
  executed_ = true;
  const size_t dop = std::max<size_t>(1, parallel_.dop);
  worker_stats_.assign(dop, ExecStats());

  if (dop <= 1 && !parallel_.force_parallel) {
    // Serial delegation: the exact pre-existing code path, work-unit and
    // checksum identical to a plain PipelineExecutor run.
    PipelineExecutor exec(plan_, options_);
    exec.set_cancellation_token(cancel_token_);
    exec.set_metrics(metrics_);
    exec.set_fault_injection(faults_);
    exec.set_observer(ObserverFor(0));
    StatusOr<ExecStats> result = exec.Execute(sink);
    if (result.ok()) worker_stats_[0] = *result;
    return result;
  }

  const bool record_positions =
      std::any_of(observers_.begin(), observers_.end(),
                  [](ExecObserver* o) { return o != nullptr; });
  AdaptiveCoordinator coordinator(plan_, options_, record_positions);

  std::vector<std::unique_ptr<PipelineExecutor>> workers;
  workers.reserve(dop);
  for (size_t w = 0; w < dop; ++w) {
    auto exec = std::make_unique<PipelineExecutor>(plan_, options_);
    exec->set_cancellation_token(cancel_token_);
    exec->set_fault_injection(faults_);
    exec->set_observer(ObserverFor(w));
    // No per-worker metrics: the orchestrator flushes merged totals once.
    workers.push_back(std::move(exec));
  }

  std::mutex sink_mu;
  RowSink locked_sink;
  if (sink) {
    locked_sink = [&sink, &sink_mu](const Row& row) {
      std::lock_guard<std::mutex> lock(sink_mu);
      sink(row);
    };
  }

  // StatusOr is not default-constructible; revoked lease slots stay nullopt.
  std::vector<std::optional<StatusOr<ExecStats>>> results(dop);
  auto run = [&](size_t w) {
    results[w] = workers[w]->ExecuteWorker(&coordinator, locked_sink);
  };

  const auto start = std::chrono::steady_clock::now();
  if (parallel_.pool != nullptr) {
    WorkerLease lease(parallel_.pool, dop - 1,
                      [&run](size_t i) { run(i + 1); });
    run(0);  // the calling thread is always worker 0
    lease.Finish();
  } else {
    std::vector<std::thread> threads;
    threads.reserve(dop - 1);
    for (size_t w = 1; w < dop; ++w) {
      threads.emplace_back([&run, w] { run(w); });
    }
    run(0);
    for (std::thread& th : threads) th.join();
  }
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();

  Status failure = Status::OK();
  for (size_t w = 0; w < dop && failure.ok(); ++w) {
    if (results[w].has_value() && !results[w]->ok()) {
      failure = results[w]->status();
    }
  }
  if (failure.ok() && coordinator.aborted()) {
    failure = coordinator.abort_status();
  }
  if (!failure.ok()) return failure;

  ExecStats merged;
  merged.initial_order = plan_->initial_order;
  merged.wall_seconds = wall;
  size_t participated = 0;
  for (size_t w = 0; w < dop; ++w) {
    if (!results[w].has_value()) continue;  // revoked: never ran
    const ExecStats& ws = **results[w];
    worker_stats_[w] = ws;
    if (ws.morsels > 0 || ws.rows_out > 0) ++participated;
    merged.MergeFrom(ws);
  }
  coordinator.FinishStats(&merged);
  merged.parallel_workers = participated;

  if (metrics_ != nullptr) {
    metrics_->GetCounter("exec.policy_decisions")->Add(merged.policy_decisions);
    metrics_->GetCounter("exec.parallel_queries")->Add(1);
    metrics_->GetCounter("exec.parallel_workers")->Add(merged.parallel_workers);
    metrics_->GetCounter("exec.parallel_morsels")->Add(merged.morsels);
    metrics_->GetCounter("exec.parallel_monitor_folds")
        ->Add(merged.monitor_folds);
  }
  return merged;
}

}  // namespace ajr
