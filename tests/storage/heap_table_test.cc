#include "storage/heap_table.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/random.h"
#include "types/string_pool.h"

namespace ajr {
namespace {

Schema TwoColSchema() {
  return Schema({{"id", DataType::kInt64}, {"name", DataType::kString}});
}

Schema AllTypesSchema() {
  return Schema({{"i", DataType::kInt64},
                 {"d", DataType::kDouble},
                 {"b", DataType::kBool},
                 {"s", DataType::kString}});
}

TEST(HeapTableTest, AppendAssignsDenseRids) {
  StringPool pool;
  HeapTable t("t", TwoColSchema(), &pool);
  for (int i = 0; i < 100; ++i) {
    auto rid = t.Append({Value(i), Value("row")});
    ASSERT_TRUE(rid.ok());
    EXPECT_EQ(*rid, static_cast<Rid>(i));
  }
  EXPECT_EQ(t.num_rows(), 100u);
}

TEST(HeapTableTest, GetReturnsAppendedRow) {
  StringPool pool;
  HeapTable t("t", TwoColSchema(), &pool);
  ASSERT_TRUE(t.Append({Value(7), Value("seven")}).ok());
  const Row& r = t.Get(0);
  EXPECT_EQ(r[0].AsInt64(), 7);
  EXPECT_EQ(r[1].AsString(), "seven");
}

TEST(HeapTableTest, SchemaMismatchRejected) {
  StringPool pool;
  HeapTable t("t", TwoColSchema(), &pool);
  EXPECT_FALSE(t.Append({Value(1)}).ok());
  EXPECT_FALSE(t.Append({Value("x"), Value("y")}).ok());
  EXPECT_EQ(t.num_rows(), 0u);
}

TEST(HeapTableTest, FetchChargesWork) {
  StringPool pool;
  HeapTable t("t", TwoColSchema(), &pool);
  ASSERT_TRUE(t.Append({Value(1), Value("a")}).ok());
  WorkCounter wc;
  t.Fetch(0, &wc);
  t.Fetch(0, &wc);
  EXPECT_EQ(wc.total(), 2 * WorkCounter::kRowFetch);
  t.Fetch(0, nullptr);  // null counter is a no-op
}

TEST(HeapTableTest, RowWriterAndViewAccessors) {
  StringPool pool;
  HeapTable t("t", AllTypesSchema(), &pool);
  Rid rid = t.NewRow().I64(-42).F64(2.75).Bool(true).Str("hello").Finish();
  EXPECT_EQ(rid, 0u);
  RowView v = t.View(rid);
  ASSERT_TRUE(v.valid());
  EXPECT_EQ(v.num_slots(), 4u);
  EXPECT_EQ(v.GetInt64(0), -42);
  EXPECT_DOUBLE_EQ(v.GetDouble(1), 2.75);
  EXPECT_TRUE(v.GetBool(2));
  EXPECT_EQ(v.GetString(3), "hello");
  // Materialization paths agree with the typed accessors.
  EXPECT_EQ(v.GetValue(0), Value(int64_t{-42}));
  EXPECT_EQ(v.GetValue(3), Value("hello"));
  Row r = v.ToRow();
  ASSERT_EQ(r.size(), 4u);
  EXPECT_EQ(r[1], Value(2.75));
  EXPECT_EQ(r[2], Value(true));
}

TEST(HeapTableTest, StringInterningDeduplicates) {
  StringPool pool;
  HeapTable t("t", TwoColSchema(), &pool);
  for (int i = 0; i < 50; ++i) {
    t.NewRow().I64(i).Str(i % 2 == 0 ? "even" : "odd").Finish();
  }
  // Only two distinct strings were ever stored.
  EXPECT_EQ(t.pool().size(), 2u);
  EXPECT_EQ(t.View(0).GetStringId(1), t.View(2).GetStringId(1));
  EXPECT_NE(t.View(0).GetStringId(1), t.View(1).GetStringId(1));
  EXPECT_EQ(t.View(49).GetString(1), "odd");
}

TEST(HeapTableDeathTest, OutOfRangeRidAborts) {
  StringPool pool;
  HeapTable t("t", TwoColSchema(), &pool);
  EXPECT_DEATH(t.Get(0), "AJR_CHECK failed");  // empty table
  ASSERT_TRUE(t.Append({Value(1), Value("a")}).ok());
  EXPECT_DEATH(t.Get(1), "AJR_CHECK failed");
  EXPECT_DEATH(t.View(1), "AJR_CHECK failed");
  EXPECT_DEATH(t.Fetch(1, nullptr), "AJR_CHECK failed");
  EXPECT_DEATH(t.View(static_cast<Rid>(-1)), "AJR_CHECK failed");
}

// Property test: random rows of every type round-trip through the typed
// pages bit-for-bit. Row count deliberately crosses the 4096-row page
// boundary so stitching across pages is exercised.
TEST(HeapTableTest, RandomRowsRoundTripThroughTypedPages) {
  StringPool pool;
  HeapTable t("t", AllTypesSchema(), &pool);
  std::vector<Row> expected;
  Rng rng(20070415);
  const size_t kRows = 2 * 4096 + 37;
  expected.reserve(kRows);
  for (size_t i = 0; i < kRows; ++i) {
    int64_t iv = rng.NextInt64(INT64_MIN / 2, INT64_MAX / 2);
    double dv = (rng.NextDouble() - 0.5) * 1e12;
    bool bv = rng.NextBool();
    std::string sv = "s" + std::to_string(rng.NextInt64(0, 199));
    Rid rid = t.NewRow().I64(iv).F64(dv).Bool(bv).Str(sv).Finish();
    ASSERT_EQ(rid, i);
    expected.push_back({Value(iv), Value(dv), Value(bv), Value(std::move(sv))});
  }
  ASSERT_EQ(t.num_rows(), kRows);
  auto check_rows = [&]() {
    for (size_t i = 0; i < kRows; ++i) {
      RowView v = t.View(i);
      const Row& want = expected[i];
      // Typed accessors...
      ASSERT_EQ(v.GetInt64(0), want[0].AsInt64()) << "row " << i;
      ASSERT_EQ(v.GetDouble(1), want[1].AsDouble()) << "row " << i;
      ASSERT_EQ(v.GetBool(2), want[2].AsBool()) << "row " << i;
      ASSERT_EQ(v.GetString(3), want[3].AsString()) << "row " << i;
      // ...and the materialized row: same types, same values.
      Row got = v.ToRow();
      ASSERT_EQ(got.size(), want.size());
      for (size_t c = 0; c < want.size(); ++c) {
        ASSERT_EQ(got[c].type(), want[c].type()) << "row " << i << " col " << c;
        ASSERT_EQ(got[c], want[c]) << "row " << i << " col " << c;
      }
    }
  };
  check_rows();
  // Sealing renumbers the ids; rewriting the cells in place, across every
  // page, keeps each row's strings, now with byte-ordered ids.
  t.RenumberStrings(pool.Seal());
  check_rows();
  for (size_t i = 1; i < kRows; ++i) {
    ASSERT_EQ(t.View(i - 1).GetStringId(3) < t.View(i).GetStringId(3),
              t.View(i - 1).GetString(3) < t.View(i).GetString(3))
        << "row " << i;
  }
}

}  // namespace
}  // namespace ajr
