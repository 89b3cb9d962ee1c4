#include "storage/bplus_tree.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "common/random.h"

namespace ajr {
namespace {

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
  BPlusTree tree(DataType::kInt64);
  tree.Insert(Value(42), 7);
  auto it = tree.SeekFirst(nullptr);
  ASSERT_TRUE(it.Valid());
  EXPECT_EQ(it.key().AsInt64(), 42);
  EXPECT_EQ(it.rid(), 7u);
  it.Next(nullptr);
  EXPECT_FALSE(it.Valid());
}

TEST(BPlusTreeTest, InsertsComeOutSorted) {
  BPlusTree tree(DataType::kInt64, /*fanout=*/8);
  Rng rng(17);
  std::vector<IndexEntry> expected;
  for (int i = 0; i < 2000; ++i) {
    Value key(rng.NextInt64(0, 300));
    Rid rid = static_cast<Rid>(i);
    tree.Insert(key, rid);
    expected.push_back({key, rid});
  }
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
  BPlusTree tree(DataType::kString, 4);
  const char* makes[] = {"Mercedes", "Audi", "Chevrolet", "BMW", "Mazda"};
  for (Rid i = 0; i < 5; ++i) tree.Insert(Value(makes[i]), i);
  auto got = Drain(tree);
  ASSERT_EQ(got.size(), 5u);
  EXPECT_EQ(got[0].key.AsString(), "Audi");
  EXPECT_EQ(got[4].key.AsString(), "Mercedes");
  EXPECT_TRUE(tree.CheckInvariants().ok());
}

TEST(BPlusTreeTest, DuplicateKeysOrderedByRid) {
  BPlusTree tree(DataType::kInt64, 4);
  for (Rid r : {9u, 3u, 7u, 1u, 5u}) tree.Insert(Value(10), r);
  auto got = Drain(tree);
  ASSERT_EQ(got.size(), 5u);
  for (size_t i = 1; i < got.size(); ++i) {
    EXPECT_LT(got[i - 1].rid, got[i].rid);
  }
}

TEST(BPlusTreeTest, SeekInclusiveExclusive) {
  BPlusTree tree(DataType::kInt64, 4);
  for (int k : {10, 20, 20, 30}) {
    static Rid rid = 0;
    tree.Insert(Value(k), rid++);
  }
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

TEST(BPlusTreeTest, SeekAfterSkipsExactEntry) {
  BPlusTree tree(DataType::kInt64, 4);
  tree.Insert(Value(20), 5);
  tree.Insert(Value(20), 6);
  tree.Insert(Value(21), 0);
  auto it = tree.SeekAfter(Value(20), 5, nullptr);
  ASSERT_TRUE(it.Valid());
  EXPECT_EQ(it.key().AsInt64(), 20);
  EXPECT_EQ(it.rid(), 6u);
  it = tree.SeekAfter(Value(20), 6, nullptr);
  ASSERT_TRUE(it.Valid());
  EXPECT_EQ(it.key().AsInt64(), 21);
  it = tree.SeekAfter(Value(21), 0, nullptr);
  EXPECT_FALSE(it.Valid());
}

TEST(BPlusTreeTest, BulkLoadMatchesInserts) {
  Rng rng(23);
  std::vector<IndexEntry> entries;
  for (int i = 0; i < 5000; ++i) {
    entries.push_back({Value(rng.NextInt64(0, 1000)), static_cast<Rid>(i)});
  }
  std::sort(entries.begin(), entries.end());

  BPlusTree bulk(DataType::kInt64, 16);
  ASSERT_TRUE(bulk.BulkLoad(entries).ok());
  ASSERT_TRUE(bulk.CheckInvariants().ok()) << bulk.CheckInvariants();
  EXPECT_EQ(bulk.size(), entries.size());

  auto got = Drain(bulk);
  ASSERT_EQ(got.size(), entries.size());
  for (size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i].Compare(entries[i]), 0) << "at " << i;
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
  BPlusTree tree(DataType::kInt64, 8);
  for (int i = 0; i < 1000; ++i) tree.Insert(Value(i), static_cast<Rid>(i));
  WorkCounter wc;
  tree.Seek(Value(500), true, &wc);
  EXPECT_GE(wc.total(), tree.height() * WorkCounter::kIndexNodeVisit);
}

TEST(BPlusTreeTest, CountFunctionsMatchBruteForce) {
  Rng rng(99);
  BPlusTree tree(DataType::kInt64, 8);
  std::vector<IndexEntry> entries;
  for (int i = 0; i < 4000; ++i) {
    Value key(rng.NextInt64(0, 100));
    tree.Insert(key, static_cast<Rid>(i));
    entries.push_back({key, static_cast<Rid>(i)});
  }
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

// Property sweep: random workloads at several fanouts must preserve sorted
// order and structural invariants.
class BPlusTreeFanoutSweep : public ::testing::TestWithParam<int> {};

TEST_P(BPlusTreeFanoutSweep, RandomWorkloadKeepsInvariants) {
  const size_t fanout = static_cast<size_t>(GetParam());
  Rng rng(1000 + fanout);
  BPlusTree tree(DataType::kInt64, fanout);
  std::vector<IndexEntry> expected;
  for (int i = 0; i < 3000; ++i) {
    Value key(rng.NextInt64(-50, 50));
    tree.Insert(key, static_cast<Rid>(i));
    expected.push_back({key, static_cast<Rid>(i)});
  }
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
  }
}

INSTANTIATE_TEST_SUITE_P(Fanouts, BPlusTreeFanoutSweep,
                         ::testing::Values(4, 5, 8, 16, 64, 128));

}  // namespace
}  // namespace ajr
