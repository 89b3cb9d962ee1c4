// Cancellation under fuzz workloads (ctest label: stress; run under TSan).
//
// Submits generated workloads to the concurrent QueryEngine and cancels
// each query at a random point in its lifetime — before it is picked up,
// mid-execution, or after completion. The contract under test: a cancelled
// query terminates with status Cancelled and NO partial rows; a query that
// wins the race completes with exactly the reference result. Nothing in
// between.

#include <gtest/gtest.h>

#include <chrono>
#include <thread>
#include <vector>

#include "common/random.h"
#include "exec/reference_executor.h"
#include "runtime/query_engine.h"
#include "testing/oracle.h"
#include "testing/workload_gen.h"

namespace ajr {
namespace testing {
namespace {

TEST(FuzzCancel, CancelledOrExactNeverPartial) {
  Rng rng(2026);
  constexpr uint64_t kWorkloads = 6;
  constexpr int kRoundsPerWorkload = 24;

  uint64_t cancelled = 0;
  uint64_t completed = 0;
  for (uint64_t seed = 101; seed < 101 + kWorkloads; ++seed) {
    WorkloadSpec spec = GenerateWorkload(seed);
    auto catalog = spec.Materialize();
    ASSERT_TRUE(catalog.ok()) << catalog.status().ToString();
    auto expected = ExecuteReference(**catalog, spec.query);
    ASSERT_TRUE(expected.ok()) << expected.status().ToString();
    SortRows(&*expected);

    QueryEngineOptions engine_options;
    engine_options.num_workers = 4;
    QueryEngine engine(catalog->get(), engine_options);

    for (int round = 0; round < kRoundsPerWorkload; ++round) {
      QuerySpec qs;
      qs.query = spec.query;
      qs.adaptive = AggressiveAdaptiveOptions();
      qs.collect_rows = true;
      auto handle = engine.Submit(std::move(qs));
      ASSERT_TRUE(handle.ok()) << handle.status().ToString();

      // Cancel after 0..300us: early rounds hit the queue, later ones the
      // executor's depleted-state polls or the done state.
      std::this_thread::sleep_for(
          std::chrono::microseconds(rng.NextInt64(0, 300)));
      handle->Cancel();

      const QueryResult& result = handle->Wait();
      if (result.status.ok()) {
        ++completed;
        std::vector<Row> rows = result.rows;
        SortRows(&rows);
        ASSERT_EQ(rows.size(), expected->size())
            << "seed " << seed << " round " << round
            << ": completed query lost or duplicated rows";
        ASSERT_TRUE(rows == *expected) << "seed " << seed << " round " << round;
      } else {
        ++cancelled;
        ASSERT_EQ(result.status.code(), StatusCode::kCancelled)
            << result.status.ToString();
        ASSERT_TRUE(result.rows.empty())
            << "cancelled query leaked " << result.rows.size()
            << " partial rows (seed " << seed << " round " << round << ")";
      }
    }
    engine.Shutdown();
  }
  // The race must actually explore both outcomes across the run.
  EXPECT_GT(cancelled, 0u) << "no query was ever cancelled in flight";
  RecordProperty("cancelled", static_cast<int>(cancelled));
  RecordProperty("completed", static_cast<int>(completed));
}

// Same contract, morsel-parallel: a query running dop worker pipelines over
// the shared dispenser is cancelled at a random point. Any worker's cancel
// poll must abort the whole fleet (coordinator Abort wakes drain barriers),
// and the outcome is still all-or-nothing: Cancelled with no partial rows,
// or OK with exactly the reference multiset.
TEST(FuzzCancel, ParallelCancelledOrExactNeverPartial) {
  Rng rng(4051);
  constexpr uint64_t kWorkloads = 4;
  constexpr int kRoundsPerWorkload = 16;
  const size_t kDops[] = {2, 4};

  // Larger tables than the default fuzz sizing: a parallel query over
  // 15-row tables finishes before Cancel() can ever land mid-flight, and
  // the whole point here is aborting a running fleet through the drain
  // barrier.
  GeneratorOptions gen_options;
  gen_options.min_tables = 3;
  gen_options.max_tables = 4;
  gen_options.min_rows = 250;
  gen_options.max_rows = 450;

  uint64_t cancelled = 0;
  uint64_t completed = 0;
  for (uint64_t seed = 301; seed < 301 + kWorkloads; ++seed) {
    WorkloadSpec spec = GenerateWorkload(seed, gen_options);
    auto catalog = spec.Materialize();
    ASSERT_TRUE(catalog.ok()) << catalog.status().ToString();
    auto expected = ExecuteReference(**catalog, spec.query);
    ASSERT_TRUE(expected.ok()) << expected.status().ToString();
    SortRows(&*expected);

    QueryEngineOptions engine_options;
    engine_options.num_workers = 4;
    QueryEngine engine(catalog->get(), engine_options);

    for (int round = 0; round < kRoundsPerWorkload; ++round) {
      QuerySpec qs;
      qs.query = spec.query;
      qs.adaptive = AggressiveAdaptiveOptions();
      qs.dop = kDops[round % 2];
      // Ramp base 4 without back-off: 4-entry morsels, many dispenser
      // round-trips per query.
      qs.adaptive.check_frequency = 4;
      qs.collect_rows = true;
      auto handle = engine.Submit(std::move(qs));
      ASSERT_TRUE(handle.ok()) << handle.status().ToString();

      std::this_thread::sleep_for(
          std::chrono::microseconds(rng.NextInt64(0, 300)));
      handle->Cancel();

      const QueryResult& result = handle->Wait();
      if (result.status.ok()) {
        ++completed;
        std::vector<Row> rows = result.rows;
        SortRows(&rows);
        ASSERT_EQ(rows.size(), expected->size())
            << "seed " << seed << " round " << round
            << ": completed parallel query lost or duplicated rows";
        ASSERT_TRUE(rows == *expected) << "seed " << seed << " round " << round;
      } else {
        ++cancelled;
        ASSERT_EQ(result.status.code(), StatusCode::kCancelled)
            << result.status.ToString();
        ASSERT_TRUE(result.rows.empty())
            << "cancelled parallel query leaked " << result.rows.size()
            << " partial rows (seed " << seed << " round " << round << ")";
      }
    }
    engine.Shutdown();
  }
  EXPECT_GT(cancelled, 0u) << "no parallel query was ever cancelled in flight";
  RecordProperty("cancelled", static_cast<int>(cancelled));
  RecordProperty("completed", static_cast<int>(completed));
}

}  // namespace
}  // namespace testing
}  // namespace ajr
