// Concurrency stress for the cross-query sharing surfaces, built to run
// under ThreadSanitizer (cmake -DAJR_SANITIZE=thread, `ctest -L stress`).
//
// Concurrent queries with share_scan enabled hammer ONE engine-owned
// SharedScanRegistry at dop 2 and dop 4, over several generated workloads.
// The functional assertion is the strongest one available: every query's
// collected row multiset equals the brute-force ReferenceExecutor's —
// sharing may change wall time, never results. The interleavings TSan
// observes are the actual point: cooperative pass production by workers of
// different queries, circular attach (mid-pass attachments wrapping to the
// pass start), and the coordinator's drain barrier parking a query's
// workers while other queries keep producing the same pass.

#include <gtest/gtest.h>

#include <algorithm>
#include <thread>
#include <vector>

#include "exec/reference_executor.h"
#include "runtime/query_engine.h"
#include "testing/workload_gen.h"

namespace ajr {
namespace {

TEST(SharedStressTest, ConcurrentSharedQueriesMatchReference) {
  // Two submitters per round keep >= 2 queries concurrently attached to the
  // same pass; repeated submissions re-attach warm.
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

      QueryEngineOptions options;
      options.num_workers = 4;
      QueryEngine engine(catalog->get(), options);
      std::vector<std::thread> submitters;
      for (int s = 0; s < kSubmitters; ++s) {
        submitters.emplace_back([&] {
          for (int i = 0; i < kQueriesEach; ++i) {
            QuerySpec qs;
            qs.query = spec.query;
            qs.dop = dop;
            // Ramp base 5: tiny first morsels -> much pass traffic.
            qs.adaptive.check_frequency = 5;
            qs.share_scan = true;
            qs.collect_rows = true;
            auto handle = engine.Submit(std::move(qs));
            ASSERT_TRUE(handle.ok()) << handle.status();
            const QueryResult& result = handle->Wait();
            ASSERT_TRUE(result.status.ok()) << result.status;
            std::vector<Row> rows = result.rows;
            SortRows(&rows);
            EXPECT_EQ(rows == *expected, true)
                << "seed " << seed << " dop " << dop << ": shared run rows ("
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
