// Concurrency stress for the runtime, built to run under ThreadSanitizer
// (cmake -DAJR_SANITIZE=thread, then `ctest -L stress`). Registered with
// the CTest label "stress".
//
// The tests hammer the shared surfaces from many threads at once:
// submitters racing the worker pool, cancellations racing execution and
// completion, handles polled while their queries run, the thread pool's
// submit/shutdown edge, and concurrent morsel-parallel queries whose
// coordinators park workers at drain barriers while other queries run on
// the same pool. Assertions are deliberately coarse — terminal status is
// one of the allowed three, OK results match the serial or brute-force
// oracle — because the point is the interleavings TSan observes, not new
// functional coverage.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <thread>
#include <vector>

#include "common/metrics.h"
#include "exec/reference_executor.h"
#include "runtime/query_engine.h"
#include "runtime/thread_pool.h"
#include "testing/workload_gen.h"
#include "workload/dmv.h"
#include "workload/templates.h"

namespace ajr {
namespace {

QueryEngineOptions Workers(size_t n) {
  QueryEngineOptions options;
  options.num_workers = n;
  return options;
}

class EngineStressTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    catalog_ = new Catalog();
    DmvConfig config;
    config.num_owners = 1500;  // small: TSan multiplies runtimes ~10x
    ASSERT_TRUE(GenerateDmv(catalog_, config).ok());
  }
  static void TearDownTestSuite() {
    delete catalog_;
    catalog_ = nullptr;
  }

  static Catalog* catalog_;
};

Catalog* EngineStressTest::catalog_ = nullptr;

TEST_F(EngineStressTest, ThreadPoolRunsEveryTaskExactlyOnce) {
  constexpr int kSubmitters = 4;
  constexpr int kTasksEach = 500;
  ThreadPool pool(4);
  Counter executed;
  std::atomic<int> rejected{0};
  std::vector<std::thread> submitters;
  for (int s = 0; s < kSubmitters; ++s) {
    submitters.emplace_back([&] {
      for (int i = 0; i < kTasksEach; ++i) {
        if (!pool.Submit([&executed] { executed.Add(); })) rejected.fetch_add(1);
      }
    });
  }
  for (auto& t : submitters) t.join();
  pool.Shutdown();  // drains the queue before joining
  EXPECT_EQ(executed.value() + static_cast<uint64_t>(rejected.load()),
            kSubmitters * kTasksEach);
  EXPECT_EQ(rejected.load(), 0) << "no Shutdown ran concurrently: nothing rejected";
  // After shutdown every submit is refused.
  EXPECT_FALSE(pool.Submit([] {}));
}

TEST_F(EngineStressTest, ConcurrentSubmittersWithRacingCancellations) {
  // Serial oracle for every (template, variant) the stress uses.
  DmvQueryGenerator gen(catalog_);
  Planner planner(catalog_);
  constexpr size_t kVariants = 4;
  uint64_t serial_rows[kNumFourTableTemplates + 1][kVariants];
  for (int t = 1; t <= kNumFourTableTemplates; ++t) {
    for (size_t v = 0; v < kVariants; ++v) {
      auto q = gen.Generate(t, v);
      ASSERT_TRUE(q.ok()) << q.status();
      auto plan = planner.Plan(*q);
      ASSERT_TRUE(plan.ok()) << plan.status();
      PipelineExecutor exec(plan->get());
      auto stats = exec.Execute(nullptr);
      ASSERT_TRUE(stats.ok()) << stats.status();
      serial_rows[t][v] = stats->rows_out;
    }
  }

  MetricsRegistry metrics;
  QueryEngineOptions options;
  options.num_workers = 4;
  options.metrics = &metrics;
  QueryEngine engine(catalog_, options);

  constexpr int kSubmitters = 4;
  constexpr int kQueriesEach = 15;
  std::atomic<uint64_t> ok_queries{0}, stopped_queries{0}, mismatches{0};
  std::vector<std::thread> submitters;
  for (int s = 0; s < kSubmitters; ++s) {
    submitters.emplace_back([&, s] {
      DmvQueryGenerator local_gen(catalog_);
      for (int i = 0; i < kQueriesEach; ++i) {
        int template_id = 1 + (s + i) % kNumFourTableTemplates;
        size_t variant = static_cast<size_t>(i) % kVariants;
        auto q = local_gen.Generate(template_id, variant);
        ASSERT_TRUE(q.ok());
        QuerySpec spec;
        spec.query = *q;
        if (i % 5 == 3) spec.timeout = std::chrono::milliseconds(1);
        auto handle = engine.Submit(std::move(spec));
        ASSERT_TRUE(handle.ok()) << handle.status();
        // Every third query: cancel from the submitter, racing execution.
        if (i % 3 == 0) handle->Cancel();
        const QueryResult& result = handle->Wait();
        switch (result.status.code()) {
          case StatusCode::kOk:
            ok_queries.fetch_add(1);
            if (result.stats.rows_out != serial_rows[template_id][variant]) {
              mismatches.fetch_add(1);
            }
            break;
          case StatusCode::kCancelled:
          case StatusCode::kDeadlineExceeded:
            stopped_queries.fetch_add(1);
            break;
          default:
            ADD_FAILURE() << "unexpected status: " << result.status;
        }
      }
    });
  }
  for (auto& t : submitters) t.join();
  engine.Shutdown();

  EXPECT_EQ(mismatches.load(), 0u)
      << "OK queries must produce exactly the serial row counts";
  EXPECT_EQ(ok_queries.load() + stopped_queries.load(),
            static_cast<uint64_t>(kSubmitters * kQueriesEach));
  // Engine accounting agrees with what the submitters observed.
  EXPECT_EQ(metrics.FindCounter("engine.queries_submitted")->value(),
            static_cast<uint64_t>(kSubmitters * kQueriesEach));
  EXPECT_EQ(metrics.FindCounter("engine.queries_finished")->value(),
            ok_queries.load());
  EXPECT_EQ(metrics.FindCounter("engine.queries_cancelled")->value() +
                metrics.FindCounter("engine.queries_timed_out")->value(),
            stopped_queries.load());
}

TEST_F(EngineStressTest, ManyThreadsPollOneHandle) {
  QueryEngine engine(catalog_, Workers(2));
  DmvQueryGenerator gen(catalog_);
  for (int round = 0; round < 4; ++round) {
    auto q = gen.Generate(1 + round % kNumFourTableTemplates, 0);
    ASSERT_TRUE(q.ok());
    QuerySpec spec;
    spec.query = *q;
    auto handle = engine.Submit(std::move(spec));
    ASSERT_TRUE(handle.ok());
    std::vector<std::thread> pollers;
    for (int p = 0; p < 6; ++p) {
      pollers.emplace_back([h = *handle] {
        // Copies of the handle racing Wait/WaitFor/done/state/Cancel-free
        // reads against the worker publishing the result.
        while (!h.WaitFor(std::chrono::milliseconds(1))) {
          (void)h.done();
          (void)h.state();
        }
        EXPECT_TRUE(h.done());
        EXPECT_TRUE(h.Wait().status.ok()) << h.Wait().status;
      });
    }
    for (auto& t : pollers) t.join();
  }
}

TEST_F(EngineStressTest, ShutdownRacesInFlightQueries) {
  for (int round = 0; round < 8; ++round) {
    QueryEngine engine(catalog_, Workers(2));
    DmvQueryGenerator gen(catalog_);
    std::vector<QueryHandle> handles;
    for (int i = 0; i < 6; ++i) {
      auto q = gen.Generate(1 + i % kNumFourTableTemplates, i);
      ASSERT_TRUE(q.ok());
      QuerySpec spec;
      spec.query = *q;
      auto handle = engine.Submit(std::move(spec));
      ASSERT_TRUE(handle.ok());
      handles.push_back(*handle);
    }
    if (round % 2 == 0) handles[round % 6].Cancel();
    engine.Shutdown();  // races workers mid-query; must drain, not drop
    for (QueryHandle& h : handles) {
      ASSERT_TRUE(h.done());
      StatusCode code = h.Wait().status.code();
      EXPECT_TRUE(code == StatusCode::kOk || code == StatusCode::kCancelled)
          << h.Wait().status;
    }
  }
}

// Concurrent dop 2 and dop 4 queries through one engine, over several
// generated workloads: each query's coordinator parks its workers at the
// drain barrier while the other submitter's queries run on the same pool.
// Every query's collected row multiset must equal the brute-force
// ReferenceExecutor's.
TEST_F(EngineStressTest, ConcurrentParallelQueriesMatchReference) {
  constexpr int kSubmitters = 2;
  constexpr int kQueriesEach = 4;
  const uint64_t seeds[] = {11, 23, 47};

  for (size_t dop : {size_t{2}, size_t{4}}) {
    for (uint64_t seed : seeds) {
      testing::WorkloadSpec spec = testing::GenerateWorkload(seed);
      auto catalog = spec.Materialize();
      ASSERT_TRUE(catalog.ok()) << catalog.status();
      auto expected = ExecuteReference(**catalog, spec.query);
      ASSERT_TRUE(expected.ok()) << expected.status();
      SortRows(&*expected);

      QueryEngine engine(catalog->get(), Workers(4));
      std::vector<std::thread> submitters;
      for (int s = 0; s < kSubmitters; ++s) {
        submitters.emplace_back([&] {
          for (int i = 0; i < kQueriesEach; ++i) {
            QuerySpec qs;
            qs.query = spec.query;
            qs.dop = dop;
            // Ramp base 5: tiny first morsels -> many folds and barriers.
            qs.adaptive.check_frequency = 5;
            qs.collect_rows = true;
            auto handle = engine.Submit(std::move(qs));
            ASSERT_TRUE(handle.ok()) << handle.status();
            const QueryResult& result = handle->Wait();
            ASSERT_TRUE(result.status.ok()) << result.status;
            std::vector<Row> rows = result.rows;
            SortRows(&rows);
            EXPECT_EQ(rows == *expected, true)
                << "seed " << seed << " dop " << dop << ": parallel run rows ("
                << rows.size() << ") diverge from reference ("
                << expected->size() << ")";
          }
        });
      }
      for (std::thread& t : submitters) t.join();
      engine.Shutdown();
    }
  }
}

}  // namespace
}  // namespace ajr
