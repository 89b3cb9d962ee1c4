#include "storage/bplus_tree.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "common/random.h"
#include "types/string_pool.h"

namespace ajr {
namespace {

// Sorts `entries` by (key, rid) and bulk-loads them: the only way a tree is
// built. String trees take the sealed pool holding their keys.
BPlusTree Load(DataType type, size_t fanout, std::vector<IndexEntry> entries,
               const StringPool* pool = nullptr) {
  std::sort(entries.begin(), entries.end());
  BPlusTree tree(type, fanout, pool);
  EXPECT_TRUE(tree.BulkLoad(std::move(entries)).ok());
  return tree;
}

std::vector<IndexEntry> Drain(const BPlusTree& tree) {
  std::vector<IndexEntry> out;
  for (auto it = tree.SeekFirst(nullptr); it.Valid(); it.Next(nullptr)) {
    out.push_back({it.key(), it.rid()});
  }
  return out;
}

TEST(BPlusTreeTest, EmptyTree) {
  BPlusTree tree(DataType::kInt64);
  EXPECT_EQ(tree.size(), 0u);
  EXPECT_EQ(tree.height(), 1u);
  EXPECT_FALSE(tree.SeekFirst(nullptr).Valid());
  EXPECT_FALSE(tree.Seek(Value(5), true, nullptr).Valid());
  EXPECT_TRUE(tree.CheckInvariants().ok());
}

TEST(BPlusTreeTest, SingleInsert) {
  BPlusTree tree = Load(DataType::kInt64, 64, {{Value(42), 7}});
  auto it = tree.SeekFirst(nullptr);
  ASSERT_TRUE(it.Valid());
  EXPECT_EQ(it.key().AsInt64(), 42);
  EXPECT_EQ(it.rid(), 7u);
  it.Next(nullptr);
  EXPECT_FALSE(it.Valid());
}

TEST(BPlusTreeTest, InsertsComeOutSorted) {
  Rng rng(17);
  std::vector<IndexEntry> expected;
  for (int i = 0; i < 2000; ++i) {
    expected.push_back({Value(rng.NextInt64(0, 300)), static_cast<Rid>(i)});
  }
  BPlusTree tree = Load(DataType::kInt64, /*fanout=*/8, expected);
  std::sort(expected.begin(), expected.end());
  ASSERT_TRUE(tree.CheckInvariants().ok()) << tree.CheckInvariants();
  auto got = Drain(tree);
  ASSERT_EQ(got.size(), expected.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].key, expected[i].key) << "at " << i;
    EXPECT_EQ(got[i].rid, expected[i].rid) << "at " << i;
  }
  EXPECT_GT(tree.height(), 1u);
}

TEST(BPlusTreeTest, StringKeys) {
  const char* makes[] = {"Mercedes", "Audi", "Chevrolet", "BMW", "Mazda"};
  StringPool pool;
  std::vector<IndexEntry> entries;
  for (Rid i = 0; i < 5; ++i) {
    pool.Intern(makes[i]);
    entries.push_back({Value(makes[i]), i});
  }
  pool.Seal();
  BPlusTree tree = Load(DataType::kString, 4, entries, &pool);
  auto got = Drain(tree);
  ASSERT_EQ(got.size(), 5u);
  EXPECT_EQ(got[0].key.AsString(), "Audi");
  EXPECT_EQ(got[4].key.AsString(), "Mercedes");
  EXPECT_TRUE(tree.CheckInvariants().ok());
}

TEST(BPlusTreeTest, DuplicateKeysOrderedByRid) {
  std::vector<IndexEntry> entries;
  for (Rid r : {9u, 3u, 7u, 1u, 5u}) entries.push_back({Value(10), r});
  BPlusTree tree = Load(DataType::kInt64, 4, entries);
  auto got = Drain(tree);
  ASSERT_EQ(got.size(), 5u);
  for (size_t i = 1; i < got.size(); ++i) {
    EXPECT_LT(got[i - 1].rid, got[i].rid);
  }
}

TEST(BPlusTreeTest, SeekInclusiveExclusive) {
  BPlusTree tree = Load(DataType::kInt64, 4,
                        {{Value(10), 0}, {Value(20), 1}, {Value(20), 2}, {Value(30), 3}});
  auto inc = tree.Seek(Value(20), true, nullptr);
  ASSERT_TRUE(inc.Valid());
  EXPECT_EQ(inc.key().AsInt64(), 20);
  auto exc = tree.Seek(Value(20), false, nullptr);
  ASSERT_TRUE(exc.Valid());
  EXPECT_EQ(exc.key().AsInt64(), 30);
  auto past = tree.Seek(Value(31), true, nullptr);
  EXPECT_FALSE(past.Valid());
  auto before = tree.Seek(Value(5), true, nullptr);
  ASSERT_TRUE(before.Valid());
  EXPECT_EQ(before.key().AsInt64(), 10);
}

// BPlusTree::Probe, the executor's one point-probe path: all matches in RID
// order, charged one seek (the descent, plus a hop when the lower bound
// runs off the descent's leaf), one entry scan per match and one node
// visit per leaf end crossed.
TEST(BPlusTreeProbeTest, YieldsAllMatchesInRidOrder) {
  std::vector<IndexEntry> entries;  // keys 0..9, RIDs 4k..4k+3
  for (Rid rid = 0; rid < 40; ++rid) entries.push_back({Value(int64_t(rid / 4)), rid});
  BPlusTree tree = Load(DataType::kInt64, 8, entries);  // leaves of 5
  WorkCounter wc;
  std::vector<Rid> rids;
  tree.Probe(IndexKey::Int64(3), &wc, &rids);
  EXPECT_EQ(rids, (std::vector<Rid>{12, 13, 14, 15}));
  // (3, 12) sits mid-leaf [10, 15): no hop. The step onto 15 ends a leaf.
  EXPECT_EQ(wc.total(), (tree.height() + 1) * WorkCounter::kIndexNodeVisit +
                            4 * WorkCounter::kIndexEntryScan);

  // Key 5's run (20..23) opens the leaf [20, 25), but the target is (5, 0),
  // not (5, 20): the descent picks the leaf before and hops. No leaf end
  // is crossed.
  wc.Reset();
  rids.clear();
  tree.Probe(IndexKey::Int64(5), &wc, &rids);
  EXPECT_EQ(rids, (std::vector<Rid>{20, 21, 22, 23}));
  EXPECT_EQ(wc.total(), (tree.height() + 1) * WorkCounter::kIndexNodeVisit +
                            4 * WorkCounter::kIndexEntryScan);
}

TEST(BPlusTreeProbeTest, MissingKeyYieldsNothing) {
  std::vector<IndexEntry> entries;  // even keys 0..18
  for (Rid rid = 0; rid < 10; ++rid) entries.push_back({Value(int64_t(2 * rid)), rid});
  BPlusTree tree = Load(DataType::kInt64, 8, entries);  // leaves of 5
  WorkCounter wc;
  std::vector<Rid> rids;
  // Between entries, mid-leaf: the descent only; the failed match is free.
  tree.Probe(IndexKey::Int64(5), &wc, &rids);
  EXPECT_TRUE(rids.empty());
  EXPECT_EQ(wc.total(), tree.height() * WorkCounter::kIndexNodeVisit);
  // Past the last entry: the descent plus the hop off the last leaf.
  wc.Reset();
  tree.Probe(IndexKey::Int64(99), &wc, &rids);
  EXPECT_TRUE(rids.empty());
  EXPECT_EQ(wc.total(), (tree.height() + 1) * WorkCounter::kIndexNodeVisit);
}

TEST(BPlusTreeProbeTest, StringLiteralsKeyThroughTheTreePool) {
  // Literals are keyed against the tree's sealed pool: a present one finds
  // its id's run; an absent one keys between its neighbours, matches
  // nothing, and charges the descent its lower bound takes.
  const char* makes[] = {"Mercedes", "Audi", "Chevrolet", "BMW", "Mazda", "Audi"};
  StringPool pool;
  std::vector<IndexEntry> entries;
  for (Rid i = 0; i < 6; ++i) {
    pool.Intern(makes[i]);
    entries.push_back({Value(makes[i]), i});
  }
  pool.Seal();
  BPlusTree tree = Load(DataType::kString, 5, entries, &pool);  // leaves of 3
  auto key = [&tree](const char* s) { return EncodeKey(Value(s), tree.pool()); };

  // Order: Audi Audi BMW | Chevrolet Mazda Mercedes (leaves of 3). (Mazda,
  // 0) sits mid-leaf; its one Next steps onto Mercedes: no leaf end.
  WorkCounter wc;
  std::vector<Rid> rids;
  tree.Probe(key("Mazda"), &wc, &rids);
  EXPECT_EQ(rids, (std::vector<Rid>{4}));
  EXPECT_EQ(wc.total(), tree.height() * WorkCounter::kIndexNodeVisit +
                            WorkCounter::kIndexEntryScan);
  rids.clear();
  tree.Probe(key("Audi"), nullptr, &rids);
  EXPECT_EQ(rids, (std::vector<Rid>{1, 5}));

  // Absent below all: the lower bound is the first entry, no hop.
  rids.clear();
  wc.Reset();
  tree.Probe(key("Aaa"), &wc, &rids);
  EXPECT_TRUE(rids.empty());
  EXPECT_EQ(wc.total(), tree.height() * WorkCounter::kIndexNodeVisit);
  // Absent between BMW and Chevrolet: the lower bound opens the second
  // leaf and is not the target, so the descent hops.
  wc.Reset();
  tree.Probe(key("Bentley"), &wc, &rids);
  EXPECT_TRUE(rids.empty());
  EXPECT_EQ(wc.total(), (tree.height() + 1) * WorkCounter::kIndexNodeVisit);
  // Absent above all: the descent plus the hop off the last leaf.
  wc.Reset();
  tree.Probe(key("Opel"), &wc, &rids);
  EXPECT_TRUE(rids.empty());
  EXPECT_EQ(wc.total(), (tree.height() + 1) * WorkCounter::kIndexNodeVisit);
}

TEST(BPlusTreeTest, BulkLoadMatchesInserts) {
  // Random keys in random order: after the sort-then-BulkLoad, a full scan
  // and every key's counts match brute force over the same entries.
  Rng rng(23);
  std::vector<IndexEntry> entries;
  for (int i = 0; i < 5000; ++i) {
    entries.push_back({Value(rng.NextInt64(0, 1000)), static_cast<Rid>(i)});
  }
  BPlusTree bulk = Load(DataType::kInt64, 16, entries);
  ASSERT_TRUE(bulk.CheckInvariants().ok()) << bulk.CheckInvariants();
  EXPECT_EQ(bulk.size(), entries.size());

  std::sort(entries.begin(), entries.end());
  auto got = Drain(bulk);
  ASSERT_EQ(got.size(), entries.size());
  for (size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i].Compare(entries[i]), 0) << "at " << i;
  }
  for (int64_t k = -1; k <= 1001; ++k) {
    auto lo = std::lower_bound(entries.begin(), entries.end(), IndexEntry{Value(k), 0});
    auto hi = std::upper_bound(entries.begin(), entries.end(),
                               IndexEntry{Value(k), UINT64_MAX});
    EXPECT_EQ(bulk.CountKeyLess(Value(k)), static_cast<size_t>(lo - entries.begin()));
    EXPECT_EQ(bulk.CountKeyLessEqual(Value(k)), static_cast<size_t>(hi - entries.begin()));
  }
}

TEST(BPlusTreeTest, BulkLoadRejectsUnsorted) {
  BPlusTree tree(DataType::kInt64);
  std::vector<IndexEntry> bad = {{Value(2), 0}, {Value(1), 0}};
  EXPECT_FALSE(tree.BulkLoad(bad).ok());
}

TEST(BPlusTreeTest, BulkLoadEmpty) {
  BPlusTree tree(DataType::kInt64);
  ASSERT_TRUE(tree.BulkLoad({}).ok());
  EXPECT_EQ(tree.size(), 0u);
  EXPECT_FALSE(tree.SeekFirst(nullptr).Valid());
}

TEST(BPlusTreeTest, SeekChargesNodeVisits) {
  std::vector<IndexEntry> entries;
  for (int i = 0; i < 1000; ++i) entries.push_back({Value(i), static_cast<Rid>(i)});
  BPlusTree tree = Load(DataType::kInt64, 8, entries);
  WorkCounter wc;
  tree.Seek(Value(499), true, &wc);
  EXPECT_EQ(wc.total(), tree.height() * WorkCounter::kIndexNodeVisit);
  // Leaves hold 5 entries, so (500, 500) opens a leaf. The descent for
  // (500, 0) picks the leaf before it and charges one hop onto it.
  wc.Reset();
  tree.Seek(Value(500), true, &wc);
  EXPECT_EQ(wc.total(), (tree.height() + 1) * WorkCounter::kIndexNodeVisit);
}

// The bulk-load leaf model every seek and scan is charged against: leaves
// of L = max(fanout·2/3, 2) entries under a height computed by the same
// grouping rule (no one-child trailing node). A seek charges height()
// visits, plus one more when its lower bound is past the leaf the descent
// picks (the last leaf whose first entry is <= the target). A Next charges
// one entry scan, plus one visit at each leaf end.
size_t ModelLeafSize(size_t fanout) {
  return std::max<size_t>(std::max<size_t>(fanout, 4) * 2 / 3, 2);
}

size_t ModelHeight(size_t n, size_t leaf) {
  size_t nodes = (n + leaf - 1) / leaf;
  size_t height = 1;
  while (nodes > 1) {
    size_t groups = 0;
    for (size_t i = 0; i < nodes; ++groups) {
      size_t end = std::min(i + leaf, nodes);
      if (end < nodes && nodes - end == 1 && end - i >= 2) end -= 1;
      i = end;
    }
    nodes = groups;
    ++height;
  }
  return height;
}

TEST(BPlusTreeTest, SeekChargesAndPositionsMatchLeafModel) {
  using Entry = std::pair<int64_t, Rid>;
  constexpr uint64_t kVisit = WorkCounter::kIndexNodeVisit;
  // Seeks that land on a leaf's first entry and find their exact target
  // there: the model charges them no hop.
  size_t exact_leaf_start_hits = 0;
  for (size_t fanout : {4, 5, 7, 64}) {
    const size_t leaf = ModelLeafSize(fanout);
    for (size_t n : {size_t{0}, size_t{1}, leaf - 1, leaf, leaf + 1, 2 * leaf,
                     size_t{5000}}) {
      SCOPED_TRACE("fanout " + std::to_string(fanout) + " n " + std::to_string(n));
      // Even keys with heavy duplication; rids 3i+1 leave gaps on both
      // sides, except that each run of a key divisible by 4 starts at RID 0,
      // so an inclusive seek on that key hits its exact target (k, 0).
      Rng rng(fanout * 7919 + n);
      std::vector<Entry> sorted;
      const int64_t distinct = std::max<int64_t>(1, static_cast<int64_t>(n) / 16);
      for (size_t i = 0; i < n; ++i) {
        sorted.emplace_back(2 * rng.NextInt64(0, distinct), static_cast<Rid>(3 * i + 1));
      }
      std::sort(sorted.begin(), sorted.end());
      for (size_t i = 0; i < n; ++i) {
        bool run_start = i == 0 || sorted[i - 1].first != sorted[i].first;
        if (run_start && sorted[i].first % 4 == 0) sorted[i].second = 0;
      }
      std::vector<IndexEntry> entries;
      for (const Entry& e : sorted) entries.push_back({Value(e.first), e.second});
      BPlusTree tree(DataType::kInt64, fanout);
      ASSERT_TRUE(tree.BulkLoad(entries).ok());
      ASSERT_EQ(tree.size(), n);
      ASSERT_EQ(tree.height(), ModelHeight(n, leaf));
      const uint64_t descent = tree.height() * kVisit;

      // The brute-force lower bound of `target` and the model's charge for
      // seeking it: the descent, plus a hop unless the bound lies in the
      // descent's leaf or is the target itself.
      auto lower_bound = [&](Entry target) -> size_t {
        return std::lower_bound(sorted.begin(), sorted.end(), target) - sorted.begin();
      };
      auto seek_charge = [&](Entry target, size_t p) -> uint64_t {
        const bool leaf_start = p > 0 && p < n && p % leaf == 0;
        if (leaf_start && sorted[p] == target) ++exact_leaf_start_hits;
        const bool hop = p == n || (leaf_start && sorted[p] != target);
        return descent + (hop ? kVisit : 0);
      };
      auto seek = [&](int64_t key, bool inclusive) {
        SCOPED_TRACE(std::string(inclusive ? "Seek inclusive" : "Seek exclusive") +
                     " key " + std::to_string(key));
        WorkCounter wc;
        auto it = tree.Seek(Value(key), inclusive, &wc);
        const Entry target{key, inclusive ? 0 : UINT64_MAX};
        const size_t p = lower_bound(target);
        EXPECT_EQ(wc.total(), seek_charge(target, p));
        ASSERT_EQ(it.Valid(), p < n);
        if (p < n) {
          EXPECT_EQ(it.key().AsInt64(), sorted[p].first);
          EXPECT_EQ(it.rid(), sorted[p].second);
        }
      };

      // A point probe is that inclusive seek, then one charged Next per
      // match: an entry scan each, plus a visit at each leaf end crossed.
      auto probe = [&](int64_t key) {
        SCOPED_TRACE("Probe key " + std::to_string(key));
        WorkCounter wc;
        std::vector<Rid> got;
        tree.Probe(IndexKey::Int64(key), &wc, &got);
        const Entry target{key, 0};
        const size_t p = lower_bound(target);
        std::vector<Rid> want;
        uint64_t leaf_ends = 0;
        for (size_t q = p; q < n && sorted[q].first == key; ++q) {
          want.push_back(sorted[q].second);
          if ((q + 1) % leaf == 0 || q + 1 == n) ++leaf_ends;
        }
        EXPECT_EQ(got, want);
        EXPECT_EQ(wc.total(), seek_charge(target, p) +
                                  want.size() * WorkCounter::kIndexEntryScan +
                                  leaf_ends * kVisit);
      };

      // Every key from below the minimum to above the maximum: present
      // (even) keys and keys between entries (odd).
      const int64_t max_key = n == 0 ? 0 : sorted.back().first;
      for (int64_t k = -1; k <= max_key + 1; ++k) {
        seek(k, true);
        seek(k, false);
        probe(k);
      }

      // SeekFirst charges the descent only; a full scan adds one entry
      // scan per entry and one visit per leaf end.
      WorkCounter wc;
      auto it = tree.SeekFirst(&wc);
      EXPECT_EQ(wc.total(), descent);
      size_t count = 0;
      for (; it.Valid(); it.Next(&wc), ++count) {
        ASSERT_LT(count, n);
        EXPECT_EQ(it.key().AsInt64(), sorted[count].first);
        EXPECT_EQ(it.rid(), sorted[count].second);
      }
      EXPECT_EQ(count, n);
      EXPECT_EQ(wc.total(), descent + n * WorkCounter::kIndexEntryScan +
                                (n + leaf - 1) / leaf * kVisit);
    }
  }
  EXPECT_GT(exact_leaf_start_hits, 0u);
}

TEST(BPlusTreeTest, CountFunctionsMatchBruteForce) {
  Rng rng(99);
  std::vector<IndexEntry> entries;
  for (int i = 0; i < 4000; ++i) {
    entries.push_back({Value(rng.NextInt64(0, 100)), static_cast<Rid>(i)});
  }
  BPlusTree tree = Load(DataType::kInt64, 8, entries);
  ASSERT_TRUE(tree.CheckInvariants().ok()) << tree.CheckInvariants();
  for (int64_t k : {-1, 0, 13, 50, 99, 100, 101}) {
    size_t lt = 0, le = 0;
    for (const auto& e : entries) {
      if (e.key < Value(k)) ++lt;
      if (e.key <= Value(k)) ++le;
    }
    EXPECT_EQ(tree.CountKeyLess(Value(k)), lt) << "k=" << k;
    EXPECT_EQ(tree.CountKeyLessEqual(Value(k)), le) << "k=" << k;
  }
}

TEST(BPlusTreeTest, CountsAfterBulkLoad) {
  std::vector<IndexEntry> entries;
  for (int i = 0; i < 1000; ++i) entries.push_back({Value(i / 10), static_cast<Rid>(i)});
  BPlusTree tree(DataType::kInt64, 16);
  ASSERT_TRUE(tree.BulkLoad(entries).ok());
  ASSERT_TRUE(tree.CheckInvariants().ok()) << tree.CheckInvariants();
  EXPECT_EQ(tree.CountKeyLess(Value(50)), 500u);
  EXPECT_EQ(tree.CountKeyLessEqual(Value(50)), 510u);
}

// Property sweep: random bulk loads at several fanouts must scan, seek and
// probe like brute force over the sorted entries.
class BPlusTreeFanoutSweep : public ::testing::TestWithParam<int> {};

TEST_P(BPlusTreeFanoutSweep, RandomWorkloadKeepsInvariants) {
  const size_t fanout = static_cast<size_t>(GetParam());
  Rng rng(1000 + fanout);
  std::vector<IndexEntry> expected;
  for (int i = 0; i < 3000; ++i) {
    expected.push_back({Value(rng.NextInt64(-50, 50)), static_cast<Rid>(i)});
  }
  BPlusTree tree = Load(DataType::kInt64, fanout, expected);
  ASSERT_TRUE(tree.CheckInvariants().ok()) << tree.CheckInvariants();
  std::sort(expected.begin(), expected.end());
  auto got = Drain(tree);
  ASSERT_EQ(got.size(), expected.size());
  for (size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i].Compare(expected[i]), 0) << "fanout " << fanout << " at " << i;
  }
  // Every present key must be findable via Seek.
  for (int k = -50; k <= 50; ++k) {
    auto it = tree.Seek(Value(k), true, nullptr);
    auto lb = std::lower_bound(expected.begin(), expected.end(),
                               IndexEntry{Value(k), 0});
    if (lb == expected.end()) {
      EXPECT_FALSE(it.Valid());
    } else {
      ASSERT_TRUE(it.Valid());
      EXPECT_EQ(it.key().Compare(lb->key), 0);
      EXPECT_EQ(it.rid(), lb->rid);
    }
    // A point probe returns exactly the key's rids, in rid order.
    std::vector<Rid> got_rids, want_rids;
    tree.Probe(IndexKey::Int64(k), nullptr, &got_rids);
    for (const IndexEntry& e : expected) {
      if (e.key == Value(k)) want_rids.push_back(e.rid);
    }
    EXPECT_EQ(got_rids, want_rids) << "k=" << k;
  }
}

INSTANTIATE_TEST_SUITE_P(Fanouts, BPlusTreeFanoutSweep,
                         ::testing::Values(4, 5, 8, 16, 64, 128));

}  // namespace
}  // namespace ajr
