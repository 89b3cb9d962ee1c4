// Typed set-up equivalence: ANALYZE and index builds read a column's sorted
// encoded cells (catalog.cc). These tests pin both to straightforward
// Value-per-cell references — a hash-map count plus a sorted vector of
// Values for ANALYZE, a comparator sort of Value entries for the index —
// so every ColumnStats field and every index entry stays byte-identical.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <unordered_map>
#include <vector>

#include "catalog/catalog.h"
#include "common/random.h"
#include "testing/workload_gen.h"
#include "workload/dmv.h"

namespace ajr {
namespace {

// ---- ANALYZE ----------------------------------------------------------------

/// The Value-based ANALYZE: one Value per cell, counted in a hash map; the
/// rich tier sorts the counts and a vector of every cell's Value.
ColumnStats ReferenceColumnStats(const HeapTable& table, size_t col_idx,
                                 const AnalyzeOptions& options) {
  ColumnStats stats;
  std::unordered_map<Value, size_t, ValueHash> counts;
  for (Rid rid = 0; rid < table.num_rows(); ++rid) {
    Value v = table.View(rid).GetValue(col_idx);
    if (!stats.min.has_value() || v < *stats.min) stats.min = v;
    if (!stats.max.has_value() || v > *stats.max) stats.max = v;
    counts[std::move(v)]++;
  }
  stats.ndv = counts.size();
  if (!options.rich || counts.empty()) return stats;

  std::vector<FrequentValue> freq;
  for (const auto& [v, c] : counts) freq.push_back({v, c});
  std::sort(freq.begin(), freq.end(), [](const FrequentValue& a, const FrequentValue& b) {
    if (a.count != b.count) return a.count > b.count;
    return a.value < b.value;
  });
  if (freq.size() > options.top_k) freq.resize(options.top_k);
  stats.frequent = std::move(freq);

  std::vector<Value> sorted;
  for (Rid rid = 0; rid < table.num_rows(); ++rid) {
    sorted.push_back(table.View(rid).GetValue(col_idx));
  }
  std::sort(sorted.begin(), sorted.end());
  size_t buckets = std::min(options.histogram_buckets, sorted.size());
  if (buckets > 0) {
    EquiDepthHistogram hist;
    hist.rows = sorted.size();
    hist.bounds.push_back(sorted.front());
    for (size_t b = 1; b < buckets; ++b) hist.bounds.push_back(sorted[b * sorted.size() / buckets]);
    hist.bounds.push_back(sorted.back());
    stats.histogram = std::move(hist);
  }
  return stats;
}

/// Same type and same bits: a double's sign of zero counts.
void ExpectSameValue(const Value& got, const Value& want, const std::string& where) {
  ASSERT_EQ(got.type(), want.type()) << where;
  if (got.type() == DataType::kDouble) {
    EXPECT_EQ(std::bit_cast<uint64_t>(got.AsDouble()), std::bit_cast<uint64_t>(want.AsDouble()))
        << where << ": " << got << " vs " << want;
  } else {
    EXPECT_EQ(got, want) << where;
  }
}

void ExpectSameStats(const ColumnStats& got, const ColumnStats& want,
                     const std::string& where) {
  ASSERT_EQ(got.min.has_value(), want.min.has_value()) << where;
  ASSERT_EQ(got.max.has_value(), want.max.has_value()) << where;
  if (want.min.has_value()) ExpectSameValue(*got.min, *want.min, where + " min");
  if (want.max.has_value()) ExpectSameValue(*got.max, *want.max, where + " max");
  EXPECT_EQ(got.ndv, want.ndv) << where;
  ASSERT_EQ(got.frequent.size(), want.frequent.size()) << where;
  for (size_t i = 0; i < want.frequent.size(); ++i) {
    const std::string at = where + " frequent[" + std::to_string(i) + "]";
    ExpectSameValue(got.frequent[i].value, want.frequent[i].value, at);
    EXPECT_EQ(got.frequent[i].count, want.frequent[i].count) << at;
  }
  ASSERT_EQ(got.histogram.has_value(), want.histogram.has_value()) << where;
  if (!want.histogram.has_value()) return;
  EXPECT_EQ(got.histogram->rows, want.histogram->rows) << where;
  ASSERT_EQ(got.histogram->bounds.size(), want.histogram->bounds.size()) << where;
  for (size_t i = 0; i < want.histogram->bounds.size(); ++i) {
    ExpectSameValue(got.histogram->bounds[i], want.histogram->bounds[i],
                    where + " bound[" + std::to_string(i) + "]");
  }
}

/// The minimal tier, the default rich tier, and rich tiers whose top-k and
/// bucket counts are small, zero, or larger than the tables.
std::vector<AnalyzeOptions> Tiers() {
  std::vector<AnalyzeOptions> tiers(5);
  for (size_t i = 1; i < tiers.size(); ++i) tiers[i].rich = true;
  tiers[2].top_k = 3;
  tiers[2].histogram_buckets = 7;
  tiers[3].top_k = 0;
  tiers[3].histogram_buckets = 0;
  tiers[4].top_k = 1000;
  tiers[4].histogram_buckets = 1000;
  return tiers;
}

/// Analyzes every table of `catalog` at every tier and compares each
/// column's stats with the reference.
void ExpectAnalyzeMatchesReference(Catalog* catalog, const std::string& label) {
  for (const AnalyzeOptions& options : Tiers()) {
    ASSERT_TRUE(catalog->AnalyzeAll(options).ok());
    for (const std::string& name : catalog->TableNames()) {
      const TableEntry* entry = *catalog->GetTable(name);
      for (size_t col = 0; col < entry->schema().num_columns(); ++col) {
        const std::string& column = entry->schema().column(col).name;
        const ColumnStats* got = entry->GetColumnStats(column);
        ASSERT_NE(got, nullptr);
        ExpectSameStats(*got, ReferenceColumnStats(entry->table(), col, options),
                        label + " " + name + "." + column +
                            (options.rich ? " rich k=" + std::to_string(options.top_k)
                                          : " minimal"));
      }
    }
  }
}

TEST(AnalyzeEquivalenceTest, DmvTables) {
  Catalog catalog;
  DmvConfig config;
  config.num_owners = 1500;
  config.analyze = false;
  ASSERT_TRUE(GenerateDmv(&catalog, config).ok());
  ExpectAnalyzeMatchesReference(&catalog, "dmv");
}

TEST(AnalyzeEquivalenceTest, FuzzGeneratorTables) {
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    auto catalog = ajr::testing::GenerateWorkload(seed).Materialize();
    ASSERT_TRUE(catalog.ok()) << catalog.status();
    ExpectAnalyzeMatchesReference(catalog->get(), "seed " + std::to_string(seed));
  }
}

Schema EdgeSchema() {
  return Schema({{"d", DataType::kDouble},
                 {"i", DataType::kInt64},
                 {"same", DataType::kInt64},
                 {"s", DataType::kString},
                 {"b", DataType::kBool}});
}

/// Edge-case cells: both zeros, both infinities, subnormals and the
/// double extremes; INT64_MIN/MAX; a single-value column; strings that are
/// prefixes of each other, interned out of byte order; bools.
TEST(AnalyzeEquivalenceTest, EdgeCaseTables) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const std::vector<double> doubles = {
      0.0, -0.0, kInf, -kInf, 1.5, -1.5,
      std::numeric_limits<double>::denorm_min(), -std::numeric_limits<double>::denorm_min(),
      std::numeric_limits<double>::max(), std::numeric_limits<double>::lowest()};
  const std::vector<int64_t> ints = {std::numeric_limits<int64_t>::min(),
                                     std::numeric_limits<int64_t>::max(), 0, -1, 1, 255, 256};
  const std::vector<std::string> strings = {"zz", "", "a", "ab", "b", "aa", "a\x01", "Z"};

  Catalog catalog;
  HeapTable& edge = (*catalog.CreateTable("edge", EdgeSchema()))->table();
  Rng rng(7);
  for (int r = 0; r < 600; ++r) {
    edge.NewRow()
        .F64(doubles[rng.NextUint64(doubles.size())])
        .I64(ints[rng.NextUint64(ints.size())])
        .I64(42)
        .Str(strings[rng.NextUint64(strings.size())])
        .Bool(rng.NextBool(0.3))
        .Finish();
  }
  HeapTable& one = (*catalog.CreateTable("one_row", EdgeSchema()))->table();
  one.NewRow().F64(-0.0).I64(std::numeric_limits<int64_t>::min()).I64(0).Str("x").Bool(true).Finish();
  ASSERT_TRUE(catalog.CreateTable("empty", EdgeSchema()).ok());

  ExpectAnalyzeMatchesReference(&catalog, "edge");
  const TableEntry* empty = *catalog.GetTable("empty");
  EXPECT_FALSE(empty->GetColumnStats("d")->min.has_value());
  EXPECT_EQ(empty->GetColumnStats("s")->ndv, 0u);
  EXPECT_EQ((*catalog.GetTable("edge"))->GetColumnStats("same")->ndv, 1u);
}

// ---- Index builds -------------------------------------------------------------

Schema KeySchema() {
  return Schema({{"i", DataType::kInt64},
                 {"d", DataType::kDouble},
                 {"b", DataType::kBool},
                 {"s", DataType::kString}});
}

/// Builds the catalog index on `column` and compares it with a tree
/// bulk-loaded from comparator-sorted Value entries: the same (key, RID)
/// iteration, the same height, and valid invariants.
void ExpectIndexMatchesReference(Catalog* catalog, const std::string& table,
                                 const std::string& column, size_t fanout) {
  const std::string name = table + "_" + column + "_" + std::to_string(fanout);
  SCOPED_TRACE(name);
  ASSERT_TRUE(catalog->BuildIndex(table, column, name, fanout).ok());
  const TableEntry* entry = *catalog->GetTable(table);
  const BPlusTree& tree = *entry->FindIndexByName(name)->tree;
  ASSERT_TRUE(tree.CheckInvariants().ok());

  const size_t col = *entry->schema().ColumnIndex(column);
  std::vector<IndexEntry> reference;
  for (Rid rid = 0; rid < entry->table().num_rows(); ++rid) {
    reference.push_back({entry->table().View(rid).GetValue(col), rid});
  }
  std::sort(reference.begin(), reference.end());
  BPlusTree reference_tree(tree.key_type(), fanout,
                           tree.key_type() == DataType::kString ? &catalog->pool() : nullptr);
  ASSERT_TRUE(reference_tree.BulkLoad(reference).ok());
  EXPECT_EQ(tree.height(), reference_tree.height());
  ASSERT_EQ(tree.size(), reference.size());

  size_t i = 0;
  for (auto it = tree.SeekFirst(nullptr); it.Valid(); it.Next(nullptr), ++i) {
    ASSERT_LT(i, reference.size());
    ASSERT_EQ(it.rid(), reference[i].rid) << "entry " << i;
    ExpectSameValue(it.key(), reference[i].key, "entry " + std::to_string(i));
  }
  EXPECT_EQ(i, reference.size());
}

/// One table per key shape, every column indexed at two fanouts.
TEST(IndexBuildEquivalenceTest, MatchesComparatorSort) {
  constexpr int kRows = 3000;
  Catalog catalog;
  Rng rng(11);
  const std::vector<std::string> shapes = {"random", "ascending", "descending", "equal",
                                           "narrow"};
  for (const std::string& shape : shapes) {
    HeapTable& t = (*catalog.CreateTable(shape, KeySchema()))->table();
    for (int r = 0; r < kRows; ++r) {
      // Ascending keys run from negative to positive; descending reverses.
      int64_t rank = shape == "ascending" ? r : kRows - r;
      int64_t i = rank - kRows / 2;
      double d = static_cast<double>(i) * 0.25;
      bool b = r >= kRows / 2;
      std::string s = "k" + std::to_string(100000 + rank);
      if (shape == "random") {
        i = static_cast<int64_t>(rng.Next64());
        d = (rng.NextDouble() - 0.5) * std::ldexp(1.0, static_cast<int>(rng.NextUint64(200)) - 100);
        b = rng.NextBool();
        s = std::string(rng.NextUint64(4), static_cast<char>('a' + rng.NextUint64(3))) +
            std::to_string(rng.NextUint64(50));
      } else if (shape == "equal") {
        i = -7;
        d = -0.0;
        b = true;
        s = "same";
      } else if (shape == "narrow") {
        // Few distinct keys, all differing in one byte only.
        i = -3 + static_cast<int64_t>(rng.NextUint64(6));
        d = static_cast<double>(rng.NextUint64(4));
        s = std::string(1, static_cast<char>('a' + rng.NextUint64(5)));
      }
      t.NewRow().I64(i).F64(d).Bool(b).Str(s).Finish();
    }
  }
  // Every table loads before the first index build seals the string pool.
  for (const std::string& shape : shapes) {
    for (const char* column : {"i", "d", "b", "s"}) {
      for (size_t fanout : {4, 64}) ExpectIndexMatchesReference(&catalog, shape, column, fanout);
    }
  }
}

TEST(IndexBuildEquivalenceTest, TinyTables) {
  Catalog catalog;
  ASSERT_TRUE(catalog.CreateTable("empty", KeySchema()).ok());
  HeapTable& one = (*catalog.CreateTable("one", KeySchema()))->table();
  one.NewRow().I64(-1).F64(-0.0).Bool(false).Str("").Finish();
  for (const char* table : {"empty", "one"}) {
    for (const char* column : {"i", "d", "b", "s"}) {
      ExpectIndexMatchesReference(&catalog, table, column, 4);
    }
  }
}

}  // namespace
}  // namespace ajr
