#include "exec/probe_cache_shared.h"

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

namespace ajr {
namespace {

std::vector<Rid> Rids(std::initializer_list<Rid> rids) { return rids; }

// Distinct stable "index object" addresses for leg signatures.
int kIndexA, kIndexB;

TEST(SharedProbeCacheTest, InsertLookupRoundtrip) {
  SharedProbeCache cache(/*entries_per_stripe=*/4, /*stripes=*/4);
  const uint64_t sig = SharedProbeCache::LegSignature(&kIndexA, "", 0);
  SharedProbeCache::Result r;
  bool conflict = false;
  EXPECT_FALSE(cache.Lookup(sig, IndexKey::Int64(7), &r, &conflict));
  cache.Insert(sig, IndexKey::Int64(7), Rids({10, 11, 12}), 3, 42, &conflict);
  ASSERT_TRUE(cache.Lookup(sig, IndexKey::Int64(7), &r, &conflict));
  EXPECT_EQ(r.matches, Rids({10, 11, 12}));
  EXPECT_EQ(r.fetched, 3u);
  EXPECT_EQ(r.work_units, 42u);
  EXPECT_FALSE(conflict) << "single-threaded access reported lock contention";
  EXPECT_EQ(cache.size(), 1u);
}

TEST(SharedProbeCacheTest, LegSignatureSeparatesLegs) {
  // Each component of the leg identity — index object, predicate
  // fingerprint, epoch — must produce a distinct result space.
  const uint64_t base = SharedProbeCache::LegSignature(&kIndexA, "x > 1", 0);
  EXPECT_NE(base, SharedProbeCache::LegSignature(&kIndexB, "x > 1", 0));
  EXPECT_NE(base, SharedProbeCache::LegSignature(&kIndexA, "x > 2", 0));
  EXPECT_NE(base, SharedProbeCache::LegSignature(&kIndexA, "x > 1", 1));

  SharedProbeCache cache(4, 4);
  SharedProbeCache::Result r;
  bool conflict = false;
  cache.Insert(base, IndexKey::Int64(1), Rids({1}), 1, 10, &conflict);
  EXPECT_FALSE(cache.Lookup(SharedProbeCache::LegSignature(&kIndexB, "x > 1", 0),
                            IndexKey::Int64(1), &r, &conflict));
  EXPECT_FALSE(cache.Lookup(SharedProbeCache::LegSignature(&kIndexA, "x > 2", 0),
                            IndexKey::Int64(1), &r, &conflict));
  EXPECT_FALSE(cache.Lookup(SharedProbeCache::LegSignature(&kIndexA, "x > 1", 1),
                            IndexKey::Int64(1), &r, &conflict));
  EXPECT_TRUE(cache.Lookup(base, IndexKey::Int64(1), &r, &conflict));
}

TEST(SharedProbeCacheTest, HotKeysSurviveUnrelatedLegDemotion) {
  // With the demotion epoch folded into the leg signature, demoting leg B
  // retires only leg B's entries: leg A's hot entries stay live — even when
  // they hash into the same stripe (stripes=1 forces that worst case).
  SharedProbeCache cache(/*entries_per_stripe=*/8, /*stripes=*/1);
  const uint64_t leg_a = SharedProbeCache::LegSignature(&kIndexA, "", 0);
  uint64_t leg_b = SharedProbeCache::LegSignature(&kIndexB, "", 0);
  bool conflict = false;
  for (int64_t k = 0; k < 3; ++k) {
    cache.Insert(leg_a, IndexKey::Int64(k), Rids({static_cast<Rid>(k)}), 1, 7,
                 &conflict);
    cache.Insert(leg_b, IndexKey::Int64(k), Rids({static_cast<Rid>(100 + k)}),
                 1, 9, &conflict);
  }

  // Leg B demotes: its epoch bumps, so its signature changes and its old
  // entries become unreachable. Leg A's signature is untouched.
  leg_b = SharedProbeCache::LegSignature(&kIndexB, "", 1);
  SharedProbeCache::Result r;
  for (int64_t k = 0; k < 3; ++k) {
    EXPECT_TRUE(cache.Lookup(leg_a, IndexKey::Int64(k), &r, &conflict))
        << "leg A key " << k << " evicted by leg B's demotion";
    EXPECT_EQ(r.matches, Rids({static_cast<Rid>(k)}));
    EXPECT_FALSE(cache.Lookup(leg_b, IndexKey::Int64(k), &r, &conflict))
        << "leg B key " << k << " visible across its own demotion";
  }
}

TEST(SharedProbeCacheTest, LruEvictionWithinStripe) {
  SharedProbeCache cache(/*entries_per_stripe=*/3, /*stripes=*/1);
  const uint64_t sig = SharedProbeCache::LegSignature(&kIndexA, "", 0);
  SharedProbeCache::Result r;
  bool conflict = false;
  cache.Insert(sig, IndexKey::Int64(1), Rids({1}), 1, 1, &conflict);
  cache.Insert(sig, IndexKey::Int64(2), Rids({2}), 1, 1, &conflict);
  cache.Insert(sig, IndexKey::Int64(3), Rids({3}), 1, 1, &conflict);
  // Touch 1 so 2 becomes the LRU victim.
  ASSERT_TRUE(cache.Lookup(sig, IndexKey::Int64(1), &r, &conflict));
  cache.Insert(sig, IndexKey::Int64(4), Rids({4}), 1, 1, &conflict);
  EXPECT_EQ(cache.size(), 3u);
  EXPECT_TRUE(cache.Lookup(sig, IndexKey::Int64(1), &r, &conflict));
  EXPECT_FALSE(cache.Lookup(sig, IndexKey::Int64(2), &r, &conflict))
      << "LRU not evicted";
  EXPECT_TRUE(cache.Lookup(sig, IndexKey::Int64(3), &r, &conflict));
  EXPECT_TRUE(cache.Lookup(sig, IndexKey::Int64(4), &r, &conflict));
}

TEST(SharedProbeCacheTest, CapacityZeroDisables) {
  SharedProbeCache cache(/*entries_per_stripe=*/0, /*stripes=*/4);
  const uint64_t sig = SharedProbeCache::LegSignature(&kIndexA, "", 0);
  SharedProbeCache::Result r;
  bool conflict = false;
  cache.Insert(sig, IndexKey::Int64(1), Rids({1}), 1, 1, &conflict);
  EXPECT_FALSE(cache.Lookup(sig, IndexKey::Int64(1), &r, &conflict));
  EXPECT_EQ(cache.size(), 0u);
}

TEST(SharedProbeCacheTest, StringKeysAreCopiedNotBorrowed) {
  // IndexKey borrows string bytes from a query-lifetime pool; the shared
  // cache outlives the query, so it must own a copy.
  SharedProbeCache cache(4, 4);
  const uint64_t sig = SharedProbeCache::LegSignature(&kIndexA, "", 0);
  bool conflict = false;
  {
    std::string transient = "hot-key";
    cache.Insert(sig, IndexKey::String(transient), Rids({5}), 1, 3, &conflict);
    transient.assign("clobbered");
  }
  std::string fresh = "hot-key";
  SharedProbeCache::Result r;
  ASSERT_TRUE(cache.Lookup(sig, IndexKey::String(fresh), &r, &conflict));
  EXPECT_EQ(r.matches, Rids({5}));
}

TEST(SharedProbeCacheTest, ConcurrentHammerOneKeyStaysConsistent) {
  // Many threads inserting and looking up a small hot set: every hit must
  // return one of the values some thread inserted for that key (entries are
  // copied out under the stripe lock, so no torn reads).
  SharedProbeCache cache(/*entries_per_stripe=*/16, /*stripes=*/2);
  const uint64_t sig = SharedProbeCache::LegSignature(&kIndexA, "", 0);
  constexpr int kThreads = 4;
  constexpr int kOps = 2000;
  std::vector<std::thread> threads;
  std::vector<int> failures(kThreads, 0);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&cache, sig, t, &failures] {
      bool conflict = false;
      for (int i = 0; i < kOps; ++i) {
        const int64_t k = i % 8;
        cache.Insert(sig, IndexKey::Int64(k), Rids({static_cast<Rid>(k)}), 1,
                     static_cast<uint64_t>(k) + 1, &conflict);
        SharedProbeCache::Result r;
        if (cache.Lookup(sig, IndexKey::Int64(k), &r, &conflict)) {
          if (r.matches != Rids({static_cast<Rid>(k)}) ||
              r.work_units != static_cast<uint64_t>(k) + 1) {
            ++failures[t];
          }
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(failures[t], 0) << "thread " << t << " observed a torn entry";
  }
}

}  // namespace
}  // namespace ajr
