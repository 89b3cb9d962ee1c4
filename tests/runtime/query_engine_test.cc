// QueryEngine behaviour: concurrent serving produces serial results,
// cancellation and deadlines surface their distinct statuses, handles have
// future-like semantics, and the metrics registry observes it all.

#include "runtime/query_engine.h"

#include <gtest/gtest.h>

#include <chrono>
#include <condition_variable>
#include <mutex>
#include <thread>
#include <vector>

#include "common/metrics.h"
#include "workload/dmv.h"
#include "workload/templates.h"

namespace ajr {
namespace {

using std::chrono::milliseconds;

QueryEngineOptions Workers(size_t n) {
  QueryEngineOptions options;
  options.num_workers = n;
  return options;
}

// One-shot gate for coordinating a worker-side sink with the test thread.
class Gate {
 public:
  void Open() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      open_ = true;
    }
    cv_.notify_all();
  }
  void Wait() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return open_; });
  }
  bool WaitFor(milliseconds timeout) {
    std::unique_lock<std::mutex> lock(mu_);
    return cv_.wait_for(lock, timeout, [this] { return open_; });
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool open_ = false;
};

class QueryEngineTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    catalog_ = new Catalog();
    DmvConfig config;
    config.num_owners = 3000;
    ASSERT_TRUE(GenerateDmv(catalog_, config).ok());
  }
  static void TearDownTestSuite() {
    delete catalog_;
    catalog_ = nullptr;
  }

  // Serial oracle: plan + execute on the calling thread.
  static uint64_t SerialRowCount(const JoinQuery& q) {
    Planner planner(catalog_);
    auto plan = planner.Plan(q);
    EXPECT_TRUE(plan.ok()) << plan.status();
    PipelineExecutor exec(plan->get());
    auto stats = exec.Execute(nullptr);
    EXPECT_TRUE(stats.ok()) << stats.status();
    return stats.ok() ? stats->rows_out : 0;
  }

  static QueryHandle MustSubmit(QueryEngine* engine, QuerySpec spec) {
    auto handle = engine->Submit(std::move(spec));
    EXPECT_TRUE(handle.ok()) << handle.status();
    return handle.ok() ? *handle : QueryHandle();
  }

  static Catalog* catalog_;
};

Catalog* QueryEngineTest::catalog_ = nullptr;

TEST_F(QueryEngineTest, ConcurrentSubmissionMatchesSerialRowCounts) {
  DmvQueryGenerator gen(catalog_);
  auto queries = gen.GenerateMix(4);  // 4 variants x 5 templates = 20 queries
  ASSERT_TRUE(queries.ok()) << queries.status();

  std::vector<uint64_t> serial;
  serial.reserve(queries->size());
  for (const JoinQuery& q : *queries) serial.push_back(SerialRowCount(q));

  MetricsRegistry metrics;
  QueryEngineOptions options;
  options.num_workers = 4;
  options.metrics = &metrics;
  QueryEngine engine(catalog_, options);
  std::vector<QueryHandle> handles;
  for (const JoinQuery& q : *queries) {
    QuerySpec spec;
    spec.query = q;
    handles.push_back(MustSubmit(&engine, std::move(spec)));
  }
  uint64_t total_rows = 0;
  for (size_t i = 0; i < handles.size(); ++i) {
    const QueryResult& result = handles[i].Wait();
    ASSERT_TRUE(result.status.ok()) << handles[i].name() << ": " << result.status;
    EXPECT_EQ(result.stats.rows_out, serial[i]) << handles[i].name();
    total_rows += result.stats.rows_out;
  }
  engine.Shutdown();

  EXPECT_EQ(metrics.FindCounter("engine.queries_submitted")->value(),
            queries->size());
  EXPECT_EQ(metrics.FindCounter("engine.queries_finished")->value(),
            queries->size());
  EXPECT_EQ(metrics.FindCounter("engine.queries_cancelled")->value(), 0u);
  EXPECT_EQ(metrics.FindCounter("engine.rows_out")->value(), total_rows);
  EXPECT_EQ(metrics.FindHistogram("engine.query_latency_us")->count(),
            queries->size());
}

TEST_F(QueryEngineTest, CollectRowsReturnsTheResultSet) {
  JoinQuery q = DmvQueryGenerator::Example1();
  uint64_t expected = SerialRowCount(q);
  ASSERT_GT(expected, 0u);

  QueryEngine engine(catalog_, Workers(1));
  QuerySpec spec;
  spec.query = q;
  spec.collect_rows = true;
  QueryHandle h = MustSubmit(&engine, std::move(spec));
  const QueryResult& result = h.Wait();
  ASSERT_TRUE(result.status.ok()) << result.status;
  EXPECT_EQ(result.rows.size(), expected);
  EXPECT_EQ(result.stats.rows_out, expected);
}

TEST_F(QueryEngineTest, MorselParallelQueriesMatchSerialRowCounts) {
  DmvQueryGenerator gen(catalog_);
  auto queries = gen.GenerateMix(1);  // one variant per template
  ASSERT_TRUE(queries.ok()) << queries.status();

  MetricsRegistry metrics;
  QueryEngineOptions options;
  options.num_workers = 4;
  options.metrics = &metrics;
  QueryEngine engine(catalog_, options);
  for (const JoinQuery& q : *queries) {
    uint64_t expected = SerialRowCount(q);
    QuerySpec spec;
    spec.query = q;
    spec.dop = 4;  // intra-query parallelism, capped at the pool size
    spec.adaptive.check_frequency = 16;  // ramp base: 16-entry first morsels
    QueryHandle h = MustSubmit(&engine, std::move(spec));
    const QueryResult& result = h.Wait();
    ASSERT_TRUE(result.status.ok()) << h.name() << ": " << result.status;
    EXPECT_EQ(result.stats.rows_out, expected) << h.name();
  }
  engine.Shutdown();

  EXPECT_EQ(metrics.FindCounter("exec.parallel_queries")->value(),
            queries->size());
  EXPECT_GT(metrics.FindCounter("exec.parallel_morsels")->value(), 0u);
}

TEST_F(QueryEngineTest, CancelStopsARunningQueryMidFlight) {
  QueryEngine engine(catalog_, Workers(1));
  Gate started, cancel_issued;
  bool first_row = true;
  QuerySpec spec;
  spec.query = DmvQueryGenerator::Example1();
  // The sink runs on the worker: park the query mid-execution on its first
  // output row until the test has issued Cancel().
  spec.sink = [&](const Row&) {
    if (first_row) {
      first_row = false;
      started.Open();
      cancel_issued.Wait();
    }
  };
  QueryHandle h = MustSubmit(&engine, std::move(spec));
  started.Wait();  // the query is provably mid-execution now
  EXPECT_FALSE(h.done());
  h.Cancel();
  cancel_issued.Open();
  const QueryResult& result = h.Wait();
  EXPECT_EQ(result.status.code(), StatusCode::kCancelled);
  EXPECT_EQ(h.state(), QueryState::kDone);
}

TEST_F(QueryEngineTest, CancelTerminatesAQueuedQueryWithoutRunningIt) {
  QueryEngine engine(catalog_, Workers(1));
  Gate blocker_started, release;
  bool first_row = true;
  QuerySpec blocker;
  blocker.query = DmvQueryGenerator::Example1();
  blocker.sink = [&](const Row&) {
    if (first_row) {
      first_row = false;
      blocker_started.Open();
      release.Wait();
    }
  };
  QueryHandle blocking = MustSubmit(&engine, std::move(blocker));
  blocker_started.Wait();

  // The single worker is busy: this query sits in the queue.
  QuerySpec queued;
  queued.query = DmvQueryGenerator::Example2();
  bool queued_ran = false;
  queued.sink = [&queued_ran](const Row&) { queued_ran = true; };
  QueryHandle h = MustSubmit(&engine, std::move(queued));
  EXPECT_EQ(h.state(), QueryState::kQueued);
  h.Cancel();
  release.Open();

  EXPECT_EQ(h.Wait().status.code(), StatusCode::kCancelled);
  EXPECT_FALSE(queued_ran) << "a query cancelled while queued must not execute";
  EXPECT_TRUE(blocking.Wait().status.ok());
}

TEST_F(QueryEngineTest, ZeroTimeoutExpiresBeforeExecution) {
  QueryEngine engine(catalog_, Workers(1));
  QuerySpec spec;
  spec.query = DmvQueryGenerator::Example1();
  spec.timeout = milliseconds(0);
  QueryHandle h = MustSubmit(&engine, std::move(spec));
  EXPECT_EQ(h.Wait().status.code(), StatusCode::kDeadlineExceeded);
}

TEST_F(QueryEngineTest, DeadlinePassingMidQueryStopsTheQuery) {
  QueryEngine engine(catalog_, Workers(1));
  bool first_row = true;
  QuerySpec spec;
  spec.query = DmvQueryGenerator::Example1();
  spec.timeout = milliseconds(20);
  // Sleep past the deadline inside the sink: the executor must notice at a
  // later depleted state and stop with the deadline status.
  spec.sink = [&first_row](const Row&) {
    if (first_row) {
      first_row = false;
      std::this_thread::sleep_for(milliseconds(60));
    }
  };
  QueryHandle h = MustSubmit(&engine, std::move(spec));
  EXPECT_EQ(h.Wait().status.code(), StatusCode::kDeadlineExceeded);
}

TEST_F(QueryEngineTest, CancelAndDeadlineStatusesAreDistinct) {
  EXPECT_NE(StatusCode::kCancelled, StatusCode::kDeadlineExceeded);
  EXPECT_NE(Status::Cancelled("x").code(), Status::DeadlineExceeded("x").code());
}

TEST_F(QueryEngineTest, HandleSemantics) {
  QueryEngine engine(catalog_, Workers(1));
  Gate started, release;
  bool first_row = true;
  QuerySpec spec;
  spec.query = DmvQueryGenerator::Example1();
  spec.sink = [&](const Row&) {
    if (first_row) {
      first_row = false;
      started.Open();
      release.Wait();
    }
  };
  QueryHandle h = MustSubmit(&engine, std::move(spec));
  ASSERT_TRUE(h.valid());
  started.Wait();
  EXPECT_FALSE(h.done());
  EXPECT_FALSE(h.WaitFor(milliseconds(1)));
  QueryHandle copy = h;  // copyable view of the same session
  release.Open();
  EXPECT_TRUE(h.WaitFor(milliseconds(10000)));
  EXPECT_TRUE(h.done());
  EXPECT_EQ(h.state(), QueryState::kDone);
  EXPECT_TRUE(copy.done());
  EXPECT_EQ(&copy.Wait(), &h.Wait()) << "copies share one result";
}

TEST_F(QueryEngineTest, SubmitAfterShutdownFails) {
  QueryEngine engine(catalog_, Workers(1));
  engine.Shutdown();
  QuerySpec spec;
  spec.query = DmvQueryGenerator::Example1();
  auto handle = engine.Submit(std::move(spec));
  EXPECT_FALSE(handle.ok());
}

TEST_F(QueryEngineTest, InvalidQueryFailsFastWithoutEnqueueing) {
  MetricsRegistry metrics;
  QueryEngineOptions options;
  options.num_workers = 1;
  options.metrics = &metrics;
  QueryEngine engine(catalog_, options);
  QuerySpec spec;  // default JoinQuery: no tables, fails Validate()
  auto handle = engine.Submit(std::move(spec));
  EXPECT_FALSE(handle.ok());
  const Counter* submitted = metrics.FindCounter("engine.queries_submitted");
  ASSERT_NE(submitted, nullptr);
  EXPECT_EQ(submitted->value(), 0u);
}

TEST_F(QueryEngineTest, ShutdownDrainsQueuedQueries) {
  QueryEngine engine(catalog_, Workers(1));
  DmvQueryGenerator gen(catalog_);
  std::vector<QueryHandle> handles;
  for (size_t variant = 0; variant < 6; ++variant) {
    auto q = gen.Generate(1, variant);
    ASSERT_TRUE(q.ok()) << q.status();
    QuerySpec spec;
    spec.query = *q;
    handles.push_back(MustSubmit(&engine, std::move(spec)));
  }
  engine.Shutdown();  // must run everything already accepted
  for (QueryHandle& h : handles) {
    EXPECT_TRUE(h.done());
    EXPECT_TRUE(h.Wait().status.ok()) << h.Wait().status;
  }
}

}  // namespace
}  // namespace ajr
