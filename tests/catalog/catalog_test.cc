#include "catalog/catalog.h"

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "common/random.h"

namespace ajr {
namespace {

Schema CarSchema() {
  return Schema({{"id", DataType::kInt64},
                 {"make", DataType::kString},
                 {"year", DataType::kInt64}});
}

class CatalogTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto t = catalog_.CreateTable("car", CarSchema());
    ASSERT_TRUE(t.ok());
    const char* makes[] = {"Mazda", "BMW", "Mazda", "Audi", "Mazda"};
    for (int i = 0; i < 5; ++i) {
      ASSERT_TRUE(
          (*t)->table().Append({Value(i), Value(makes[i]), Value(1990 + i)}).ok());
    }
  }
  Catalog catalog_;
};

TEST_F(CatalogTest, CreateAndGetTable) {
  auto t = catalog_.GetTable("car");
  ASSERT_TRUE(t.ok());
  EXPECT_EQ((*t)->name(), "car");
  EXPECT_EQ((*t)->table().num_rows(), 5u);
  EXPECT_FALSE(catalog_.GetTable("nope").ok());
  EXPECT_EQ(catalog_.CreateTable("car", CarSchema()).status().code(),
            StatusCode::kAlreadyExists);
}

TEST_F(CatalogTest, BuildIndexAndProbe) {
  ASSERT_TRUE(catalog_.BuildIndex("car", "make", "car_make").ok());
  auto t = catalog_.GetTable("car");
  const IndexInfo* idx = (*t)->FindIndexOnColumn("make");
  ASSERT_NE(idx, nullptr);
  EXPECT_EQ(idx->name, "car_make");
  EXPECT_EQ(idx->column_idx, 1u);
  EXPECT_EQ(idx->tree->size(), 5u);
  EXPECT_TRUE(idx->tree->CheckInvariants().ok());

  // All three Mazdas findable in (key, rid) order.
  auto it = idx->tree->Seek(Value("Mazda"), true, nullptr);
  std::vector<Rid> rids;
  while (it.Valid() && it.key() == Value("Mazda")) {
    rids.push_back(it.rid());
    it.Next(nullptr);
  }
  EXPECT_EQ(rids, (std::vector<Rid>{0, 2, 4}));
}

TEST_F(CatalogTest, BuildIndexErrors) {
  EXPECT_EQ(catalog_.BuildIndex("nope", "make", "i").code(), StatusCode::kNotFound);
  EXPECT_EQ(catalog_.BuildIndex("car", "nope", "i").code(), StatusCode::kNotFound);
  ASSERT_TRUE(catalog_.BuildIndex("car", "make", "i").ok());
  EXPECT_EQ(catalog_.BuildIndex("car", "year", "i").code(), StatusCode::kAlreadyExists);
}

TEST_F(CatalogTest, FindIndexByNameAndColumn) {
  ASSERT_TRUE(catalog_.BuildIndex("car", "make", "car_make").ok());
  ASSERT_TRUE(catalog_.BuildIndex("car", "year", "car_year").ok());
  auto t = catalog_.GetTable("car");
  EXPECT_NE((*t)->FindIndexByName("car_year"), nullptr);
  EXPECT_EQ((*t)->FindIndexByName("zzz"), nullptr);
  EXPECT_NE((*t)->FindIndexOnColumn("year"), nullptr);
  EXPECT_EQ((*t)->FindIndexOnColumn("id"), nullptr);
}

TEST_F(CatalogTest, AnalyzeBaseStats) {
  ASSERT_TRUE(catalog_.Analyze("car").ok());
  auto t = catalog_.GetTable("car");
  const ColumnStats* make_stats = (*t)->GetColumnStats("make");
  ASSERT_NE(make_stats, nullptr);
  EXPECT_EQ(make_stats->ndv, 3u);
  EXPECT_EQ(make_stats->min->AsString(), "Audi");
  EXPECT_EQ(make_stats->max->AsString(), "Mazda");
  EXPECT_FALSE(make_stats->has_rich());

  const ColumnStats* year_stats = (*t)->GetColumnStats("year");
  ASSERT_NE(year_stats, nullptr);
  EXPECT_EQ(year_stats->ndv, 5u);
  EXPECT_EQ(year_stats->min->AsInt64(), 1990);
  EXPECT_EQ(year_stats->max->AsInt64(), 1994);
}

TEST_F(CatalogTest, StatsAbsentBeforeAnalyze) {
  auto t = catalog_.GetTable("car");
  EXPECT_EQ((*t)->GetColumnStats("make"), nullptr);
}

TEST_F(CatalogTest, AnalyzeRichStats) {
  AnalyzeOptions opts;
  opts.rich = true;
  opts.top_k = 2;
  opts.histogram_buckets = 2;
  ASSERT_TRUE(catalog_.Analyze("car", opts).ok());
  auto t = catalog_.GetTable("car");
  const ColumnStats* make_stats = (*t)->GetColumnStats("make");
  ASSERT_NE(make_stats, nullptr);
  ASSERT_TRUE(make_stats->has_rich());
  ASSERT_EQ(make_stats->frequent.size(), 2u);
  EXPECT_EQ(make_stats->frequent[0].value.AsString(), "Mazda");
  EXPECT_EQ(make_stats->frequent[0].count, 3u);
  ASSERT_TRUE(make_stats->histogram.has_value());
}

TEST_F(CatalogTest, AnalyzeAllCoversEveryTable) {
  auto t2 = catalog_.CreateTable("owner", Schema({{"id", DataType::kInt64}}));
  ASSERT_TRUE(t2.ok());
  ASSERT_TRUE((*t2)->table().Append({Value(1)}).ok());
  ASSERT_TRUE(catalog_.AnalyzeAll().ok());
  EXPECT_NE((*catalog_.GetTable("car"))->GetColumnStats("id"), nullptr);
  EXPECT_NE((*catalog_.GetTable("owner"))->GetColumnStats("id"), nullptr);
}

TEST_F(CatalogTest, TableNamesSorted) {
  ASSERT_TRUE(catalog_.CreateTable("accidents", Schema()).ok());
  auto names = catalog_.TableNames();
  ASSERT_EQ(names.size(), 2u);
  EXPECT_EQ(names[0], "accidents");
  EXPECT_EQ(names[1], "car");
}

// Set-up seals the catalog's one pool: each table's string cells are
// rewritten to byte-ordered ids that still decode to the appended Values,
// and equal strings in two tables are one id.
TEST(CatalogSealTest, StringCellsSurviveTheSealAndShareIds) {
  Catalog catalog;
  const Schema schema({{"k", DataType::kInt64}, {"s", DataType::kString}});
  HeapTable& a = (*catalog.CreateTable("a", schema))->table();
  HeapTable& b = (*catalog.CreateTable("b", schema))->table();
  Rng rng(5);
  std::vector<Row> rows_a, rows_b;
  for (int i = 0; i < 300; ++i) {
    // Interleaved first sight: ids start far from byte order, and about
    // half the strings of each table also occur in the other.
    std::string s = "s" + std::to_string(rng.NextUint64(60));
    Row row = {Value(i), Value(std::move(s))};
    ASSERT_TRUE(((i % 2 == 0) ? a : b).Append(row).ok());
    ((i % 2 == 0) ? rows_a : rows_b).push_back(std::move(row));
  }
  ASSERT_TRUE(catalog.BuildIndex("a", "s", "a_s").ok());
  ASSERT_TRUE(catalog.pool().sealed());

  for (const auto& [table, rows] : {std::pair{&a, &rows_a}, std::pair{&b, &rows_b}}) {
    for (Rid rid = 0; rid < rows->size(); ++rid) {
      EXPECT_EQ(table->View(rid).GetValue(1), (*rows)[rid][1]) << table->name() << rid;
    }
  }
  for (Rid ra = 0; ra < a.num_rows(); ++ra) {
    for (Rid rb = 0; rb < b.num_rows(); ++rb) {
      const RowView va = a.View(ra), vb = b.View(rb);
      EXPECT_EQ(va.GetStringId(1) == vb.GetStringId(1), va.GetString(1) == vb.GetString(1));
      EXPECT_EQ(va.GetStringId(1) < vb.GetStringId(1), va.GetString(1) < vb.GetString(1));
      EXPECT_EQ(va.CellEquals(1, vb, 1), va.GetString(1) == vb.GetString(1));
    }
  }
  // A later index build or ANALYZE leaves the sealed ids as they are.
  const uint32_t id = a.View(0).GetStringId(1);
  ASSERT_TRUE(catalog.BuildIndex("b", "s", "b_s").ok());
  ASSERT_TRUE(catalog.AnalyzeAll().ok());
  EXPECT_EQ(a.View(0).GetStringId(1), id);
}

TEST(HistogramTest, EquiDepthFractionEstimates) {
  Catalog catalog;
  auto t = catalog.CreateTable("nums", Schema({{"v", DataType::kInt64}}));
  ASSERT_TRUE(t.ok());
  // Uniform 0..999.
  for (int i = 0; i < 1000; ++i) ASSERT_TRUE((*t)->table().Append({Value(i)}).ok());
  AnalyzeOptions opts;
  opts.rich = true;
  opts.histogram_buckets = 10;
  ASSERT_TRUE(catalog.Analyze("nums", opts).ok());
  const auto* stats = (*catalog.GetTable("nums"))->GetColumnStats("v");
  ASSERT_TRUE(stats->histogram.has_value());
  const auto& h = *stats->histogram;
  EXPECT_EQ(h.num_buckets(), 10u);
  EXPECT_NEAR(h.EstimateFractionLe(Value(499)), 0.5, 0.05);
  EXPECT_NEAR(h.EstimateFractionLe(Value(99)), 0.1, 0.05);
  EXPECT_DOUBLE_EQ(h.EstimateFractionLe(Value(-5)), 0.0);
  EXPECT_DOUBLE_EQ(h.EstimateFractionLe(Value(2000)), 1.0);
}

TEST(HistogramTest, SkewedDataCapturedByDepth) {
  Catalog catalog;
  auto t = catalog.CreateTable("skew", Schema({{"v", DataType::kInt64}}));
  ASSERT_TRUE(t.ok());
  // 90% of rows are value 1; rest uniform in [2, 100].
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    int64_t v = (i < 900) ? 1 : rng.NextInt64(2, 100);
    ASSERT_TRUE((*t)->table().Append({Value(v)}).ok());
  }
  AnalyzeOptions opts;
  opts.rich = true;
  opts.histogram_buckets = 10;
  ASSERT_TRUE(catalog.Analyze("skew", opts).ok());
  const auto* stats = (*catalog.GetTable("skew"))->GetColumnStats("v");
  // Frequent values must catch the heavy hitter.
  ASSERT_FALSE(stats->frequent.empty());
  EXPECT_EQ(stats->frequent[0].value.AsInt64(), 1);
  EXPECT_EQ(stats->frequent[0].count, 900u);
  // Equi-depth: value 1 already covers ~90% of the mass.
  // (vs. the uniform assumption, which would estimate ~1/ndv here)
  EXPECT_GE(stats->histogram->EstimateFractionLe(Value(1)), 0.8);
}

}  // namespace
}  // namespace ajr
