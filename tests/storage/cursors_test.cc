#include "storage/cursors.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "common/random.h"
#include "types/string_pool.h"

namespace ajr {
namespace {

// Builds a tree over keys [0, n) with rid == key (unique) when stride == 1,
// or duplicated keys when stride > 1 (key = rid / stride).
BPlusTree MakeTree(int n, int stride = 1) {
  std::vector<IndexEntry> entries;
  for (int rid = 0; rid < n; ++rid) {
    entries.push_back({Value(rid / stride), static_cast<Rid>(rid)});
  }
  BPlusTree tree(DataType::kInt64, 8);
  EXPECT_TRUE(tree.BulkLoad(std::move(entries)).ok());
  return tree;
}

std::vector<Rid> DrainCursor(ScanCursor* cursor) {
  std::vector<Rid> out;
  Rid rid;
  while (cursor->Next(nullptr, &rid)) out.push_back(rid);
  return out;
}

TEST(TableScanCursorTest, ScansAllRidsInOrder) {
  StringPool pool;
  HeapTable t("t", Schema({{"x", DataType::kInt64}}), &pool);
  for (int i = 0; i < 10; ++i) ASSERT_TRUE(t.Append({Value(i)}).ok());
  TableScanCursor c(&t);
  EXPECT_EQ(c.total_entries(), 10u);
  auto rids = DrainCursor(&c);
  ASSERT_EQ(rids.size(), 10u);
  for (size_t i = 0; i < rids.size(); ++i) EXPECT_EQ(rids[i], i);
}

TEST(TableScanCursorTest, PositionAndResume) {
  StringPool pool;
  HeapTable t("t", Schema({{"x", DataType::kInt64}}), &pool);
  for (int i = 0; i < 10; ++i) ASSERT_TRUE(t.Append({Value(i)}).ok());
  TableScanCursor c(&t);
  Rid rid;
  ASSERT_TRUE(c.Next(nullptr, &rid));
  ASSERT_TRUE(c.Next(nullptr, &rid));
  EXPECT_EQ(rid, 1u);
  ScanPosition pos = c.CurrentPosition();
  EXPECT_EQ(pos.order, ScanOrder::kRidOrder);
  EXPECT_EQ(pos.rid, 1u);

  // A kept cursor continues strictly after the position it reported.
  auto rest = DrainCursor(&c);
  ASSERT_EQ(rest.size(), 8u);
  EXPECT_EQ(rest.front(), 2u);
  EXPECT_EQ(rest.back(), 9u);
}

TEST(IndexScanCursorTest, FullScan) {
  auto tree = MakeTree(100);
  IndexScanCursor c(&tree, {KeyRange::All()});
  auto rids = DrainCursor(&c);
  ASSERT_EQ(rids.size(), 100u);
  for (size_t i = 0; i < rids.size(); ++i) EXPECT_EQ(rids[i], i);
}

TEST(IndexScanCursorTest, PointRange) {
  auto tree = MakeTree(100, /*stride=*/4);  // keys 0..24, 4 rids each
  IndexScanCursor c(&tree, {KeyRange::Point(Value(5))});
  auto rids = DrainCursor(&c);
  ASSERT_EQ(rids.size(), 4u);
  EXPECT_EQ(rids.front(), 20u);
  EXPECT_EQ(rids.back(), 23u);
}

TEST(IndexScanCursorTest, BoundedRangeWithExclusivity) {
  auto tree = MakeTree(20);
  KeyRange r;
  r.lo = Value(5);
  r.lo_inclusive = false;
  r.hi = Value(10);
  r.hi_inclusive = true;
  IndexScanCursor c(&tree, {r});
  auto rids = DrainCursor(&c);
  ASSERT_EQ(rids.size(), 5u);
  EXPECT_EQ(rids.front(), 6u);
  EXPECT_EQ(rids.back(), 10u);
}

TEST(IndexScanCursorTest, MultiRangeScansInKeyOrder) {
  // Example 1 shape: make IN ('Chevrolet', 'Mercedes') as two point ranges.
  auto tree = MakeTree(30, /*stride=*/3);  // keys 0..9
  IndexScanCursor c(&tree, {KeyRange::Point(Value(2)), KeyRange::Point(Value(7))});
  auto rids = DrainCursor(&c);
  ASSERT_EQ(rids.size(), 6u);
  EXPECT_EQ(rids[0], 6u);
  EXPECT_EQ(rids[2], 8u);
  EXPECT_EQ(rids[3], 21u);
  EXPECT_EQ(rids[5], 23u);
}

TEST(IndexScanCursorTest, EmptyRangesYieldNothing) {
  auto tree = MakeTree(10);
  IndexScanCursor c(&tree, {});
  EXPECT_EQ(c.total_entries(), 0u);
  Rid rid;
  EXPECT_FALSE(c.Next(nullptr, &rid));
  IndexScanCursor c2(&tree, {KeyRange::Point(Value(99))});
  EXPECT_EQ(c2.total_entries(), 0u);
  EXPECT_FALSE(c2.Next(nullptr, &rid));
}

TEST(IndexScanCursorTest, PositionAndResumeWithinRange) {
  auto tree = MakeTree(30, /*stride=*/3);  // keys 0..9, 3 rids each
  IndexScanCursor c(&tree, {KeyRange::All()});
  Rid rid;
  for (int i = 0; i < 5; ++i) ASSERT_TRUE(c.Next(nullptr, &rid));
  EXPECT_EQ(rid, 4u);  // key 1, second rid
  ScanPosition pos = c.CurrentPosition();
  EXPECT_EQ(pos.order, ScanOrder::kKeyRidOrder);
  EXPECT_EQ(pos.key_enc, OrderEncodeInt64(1));
  EXPECT_EQ(pos.rid, 4u);

  // A kept cursor continues strictly after the position it reported.
  auto rest = DrainCursor(&c);
  ASSERT_EQ(rest.size(), 25u);
  EXPECT_EQ(rest.front(), 5u);
}

// String keys are keyed against the tree's sealed pool; the cursor's range
// checks are entry positions, so bounds absent from the pool ("b~", "e")
// and exclusive bounds must still land exactly.
TEST(IndexScanCursorTest, StringKeyRangesMatchBruteForce) {
  StringPool pool;
  std::vector<IndexEntry> entries;
  for (int rid = 0; rid < 200; ++rid) {
    std::string key = std::string(1, static_cast<char>('a' + rid % 8)) +
                      std::to_string(rid % 3);
    pool.Intern(key);
    entries.push_back({Value(key), static_cast<Rid>(rid)});
  }
  pool.Seal();
  std::sort(entries.begin(), entries.end());
  BPlusTree tree(DataType::kString, 8, &pool);
  ASSERT_TRUE(tree.BulkLoad(entries).ok());

  KeyRange r1, r2;
  r1.lo = Value("b~");
  r1.lo_inclusive = true;
  r1.hi = Value("c1");
  r1.hi_inclusive = true;
  r2.lo = Value("d0");
  r2.lo_inclusive = false;
  r2.hi = Value("e");
  r2.hi_inclusive = false;
  std::vector<KeyRange> ranges = NormalizeRanges({r1, r2});

  std::vector<Rid> expected;
  for (const IndexEntry& e : entries) {
    for (const KeyRange& r : ranges) {
      if (r.Contains(e.key)) {
        expected.push_back(e.rid);
        break;
      }
    }
  }
  ASSERT_FALSE(expected.empty());
  IndexScanCursor c(&tree, ranges);
  EXPECT_EQ(c.total_entries(), expected.size());
  EXPECT_EQ(DrainCursor(&c), expected);
}

// Property test: cursor over random ranges equals brute-force filter.
class IndexScanRangeSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(IndexScanRangeSweep, MatchesBruteForce) {
  Rng rng(GetParam());
  const int n = 500;
  std::vector<int64_t> keys;
  std::vector<IndexEntry> entries;
  for (int rid = 0; rid < n; ++rid) {
    int64_t k = rng.NextInt64(0, 60);
    keys.push_back(k);
    entries.push_back({Value(k), static_cast<Rid>(rid)});
  }
  std::sort(entries.begin(), entries.end());
  BPlusTree tree(DataType::kInt64, 8);
  ASSERT_TRUE(tree.BulkLoad(std::move(entries)).ok());
  // Random disjoint ranges via NormalizeRanges.
  std::vector<KeyRange> ranges;
  int num_ranges = 1 + static_cast<int>(rng.NextUint64(4));
  for (int i = 0; i < num_ranges; ++i) {
    KeyRange r;
    int64_t lo = rng.NextInt64(0, 60);
    int64_t hi = lo + rng.NextInt64(0, 10);
    r.lo = Value(lo);
    r.hi = Value(hi);
    r.lo_inclusive = rng.NextBool();
    r.hi_inclusive = rng.NextBool();
    ranges.push_back(r);
  }
  ranges = NormalizeRanges(std::move(ranges));

  IndexScanCursor c(&tree, ranges);
  const size_t total = c.total_entries();
  auto got = DrainCursor(&c);

  // Brute force: all (key, rid) sorted, filtered by range membership.
  std::vector<std::pair<int64_t, Rid>> sorted;
  for (int rid = 0; rid < n; ++rid) sorted.push_back({keys[rid], static_cast<Rid>(rid)});
  std::sort(sorted.begin(), sorted.end());
  std::vector<Rid> expected;
  for (const auto& [k, rid] : sorted) {
    for (const auto& r : ranges) {
      if (r.Contains(Value(k))) {
        expected.push_back(rid);
        break;
      }
    }
  }
  EXPECT_EQ(got, expected);
  // The scan's size is known up front: with disjoint ranges over duplicate
  // keys, total - scanned is exactly the entries a driving scan has left.
  EXPECT_EQ(total, got.size());
}

INSTANTIATE_TEST_SUITE_P(Seeds, IndexScanRangeSweep,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u));

}  // namespace
}  // namespace ajr
