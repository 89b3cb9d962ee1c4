#include "workload/dmv.h"

#include <gtest/gtest.h>

#include <cmath>
#include <map>

namespace ajr {
namespace {

// One shared small-scale data set for all tests in this file (generation at
// 10K owners is the expensive part).
class DmvTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    catalog_ = new Catalog();
    DmvConfig config;
    config.num_owners = 10000;
    auto cards = GenerateDmv(catalog_, config);
    ASSERT_TRUE(cards.ok()) << cards.status();
    cards_ = *cards;
  }
  static void TearDownTestSuite() {
    delete catalog_;
    catalog_ = nullptr;
  }

  static const TableEntry& Table(const std::string& name) {
    auto t = catalog_->GetTable(name);
    EXPECT_TRUE(t.ok());
    return **t;
  }

  static Catalog* catalog_;
  static DmvCardinalities cards_;
};

Catalog* DmvTest::catalog_ = nullptr;
DmvCardinalities DmvTest::cards_;

TEST_F(DmvTest, CardinalitiesScaleLikeTable1) {
  // Paper's Table 1 ratios: Car/Owner = 1.11676, Accidents/Owner = 2.79125.
  EXPECT_EQ(cards_.owner, 10000u);
  EXPECT_EQ(cards_.demographics, 10000u);
  EXPECT_EQ(cards_.car, 11168u);       // round(10000 * 1.11676)
  EXPECT_EQ(cards_.accidents, 27913u);  // round(10000 * 2.79125)
  EXPECT_EQ(cards_.location, 5000u);
  EXPECT_EQ(cards_.time, 3652u);
}

TEST_F(DmvTest, DeterministicAcrossRuns) {
  Catalog other;
  DmvConfig config;
  config.num_owners = 500;
  auto cards = GenerateDmv(&other, config);
  ASSERT_TRUE(cards.ok());

  Catalog again;
  auto cards2 = GenerateDmv(&again, config);
  ASSERT_TRUE(cards2.ok());
  ASSERT_EQ(cards->car, cards2->car);

  const HeapTable& a = (*other.GetTable("car"))->table();
  const HeapTable& b = (*again.GetTable("car"))->table();
  ASSERT_EQ(a.num_rows(), b.num_rows());
  for (Rid r = 0; r < a.num_rows(); ++r) {
    ASSERT_EQ(a.Get(r), b.Get(r)) << "row " << r;
  }
}

TEST_F(DmvTest, ModelDeterminesMake) {
  // Example 2's correlation: every model name maps to exactly one make.
  const HeapTable& car = Table("car").table();
  std::map<std::string, std::string> model_to_make;
  for (Rid r = 0; r < car.num_rows(); ++r) {
    const Row& row = car.Get(r);
    auto [it, inserted] = model_to_make.emplace(row[3].AsString(), row[2].AsString());
    ASSERT_EQ(it->second, row[2].AsString())
        << "model " << row[3].AsString() << " appears under two makes";
  }
  EXPECT_GT(model_to_make.size(), 50u);  // most of the 100 models occur
}

TEST_F(DmvTest, CityDeterminesCountry3) {
  const HeapTable& owner = Table("owner").table();
  std::map<std::string, std::string> city_to_country;
  for (Rid r = 0; r < owner.num_rows(); ++r) {
    const Row& row = owner.Get(r);
    auto [it, inserted] = city_to_country.emplace(row[4].AsString(), row[3].AsString());
    ASSERT_EQ(it->second, row[3].AsString())
        << "city " << row[4].AsString() << " appears in two countries";
  }
}

TEST_F(DmvTest, CountrySkewHasHeavyHead) {
  const HeapTable& owner = Table("owner").table();
  size_t us = 0;
  for (Rid r = 0; r < owner.num_rows(); ++r) {
    if (owner.Get(r)[3].AsString() == "US") ++us;
  }
  double frac = static_cast<double>(us) / owner.num_rows();
  // Zipf(20, 1.0) head is ~27.8%; far above the uniform 5% the optimizer
  // assumes. Allow slack for sampling noise.
  EXPECT_GT(frac, 0.2);
  EXPECT_LT(frac, 0.4);
}

TEST_F(DmvTest, SalaryCorrelatesWithMakeTier) {
  // Example 1's correlation: P(salary < 50000) is high for economy-make
  // owners and low for luxury-make owners.
  const HeapTable& car = Table("car").table();
  const HeapTable& demo = Table("demographics").table();
  // demographics is 1:1 with owner by construction (rid == ownerid).
  auto poor_given_make = [&](const std::string& make) {
    size_t total = 0, poor = 0;
    for (Rid r = 0; r < car.num_rows(); ++r) {
      const Row& row = car.Get(r);
      if (row[2].AsString() != make) continue;
      ++total;
      int64_t ownerid = row[1].AsInt64();
      if (demo.Get(ownerid)[1].AsInt64() < 50000) ++poor;
    }
    return total == 0 ? -1.0 : static_cast<double>(poor) / total;
  };
  double chevy = poor_given_make("Chevrolet");
  double mercedes = poor_given_make("Mercedes");
  ASSERT_GE(chevy, 0.0);
  ASSERT_GE(mercedes, 0.0);
  EXPECT_GT(chevy, 0.55);
  EXPECT_LT(mercedes, 0.30);
  EXPECT_GT(chevy, mercedes * 2.5);
}

TEST_F(DmvTest, AmericanMakesRareInEurope) {
  // Example 1: "relatively few Chevrolet cars sold in Germany".
  const HeapTable& car = Table("car").table();
  const HeapTable& owner = Table("owner").table();
  size_t german_cars = 0, german_chevy = 0, us_cars = 0, us_chevy = 0;
  for (Rid r = 0; r < car.num_rows(); ++r) {
    const Row& row = car.Get(r);
    // View's string_view points into the catalog's pool (stable); a
    // reference into Get()'s temporary Row would dangle.
    std::string_view country =
        owner.View(static_cast<Rid>(row[1].AsInt64())).GetString(3);
    bool is_chevy = row[2].AsString() == "Chevrolet";
    if (country == "DE") {
      ++german_cars;
      german_chevy += is_chevy;
    } else if (country == "US") {
      ++us_cars;
      us_chevy += is_chevy;
    }
  }
  ASSERT_GT(german_cars, 100u);
  ASSERT_GT(us_cars, 100u);
  double de_frac = static_cast<double>(german_chevy) / german_cars;
  double us_frac = static_cast<double>(us_chevy) / us_cars;
  EXPECT_GT(us_frac, de_frac * 3.0);
}

TEST_F(DmvTest, ForeignKeysAreValid) {
  const HeapTable& car = Table("car").table();
  const HeapTable& acc = Table("accidents").table();
  for (Rid r = 0; r < car.num_rows(); ++r) {
    ASSERT_LT(static_cast<size_t>(car.Get(r)[1].AsInt64()), cards_.owner);
  }
  for (Rid r = 0; r < acc.num_rows(); ++r) {
    const Row& row = acc.Get(r);
    ASSERT_LT(static_cast<size_t>(row[1].AsInt64()), cards_.car);
    ASSERT_LT(static_cast<size_t>(row[5].AsInt64()), cards_.location);
    ASSERT_LT(static_cast<size_t>(row[6].AsInt64()), cards_.time);
  }
}

TEST_F(DmvTest, AccidentYearMatchesTimeDimension) {
  const HeapTable& acc = Table("accidents").table();
  const HeapTable& time = Table("time").table();
  for (Rid r = 0; r < std::min<Rid>(acc.num_rows(), 2000); ++r) {
    const Row& row = acc.Get(r);
    ASSERT_EQ(row[3].AsInt64(), time.Get(row[6].AsInt64())[1].AsInt64());
  }
}

TEST_F(DmvTest, IndexesBuiltAndConsistent) {
  const TableEntry& car = Table("car");
  ASSERT_EQ(car.indexes().size(), 5u);
  for (const auto& idx : car.indexes()) {
    EXPECT_EQ(idx->tree->size(), car.table().num_rows()) << idx->name;
    EXPECT_TRUE(idx->tree->CheckInvariants().ok()) << idx->name;
  }
  EXPECT_NE(Table("owner").FindIndexOnColumn("country3"), nullptr);
  EXPECT_NE(Table("demographics").FindIndexOnColumn("salary"), nullptr);
  EXPECT_NE(Table("accidents").FindIndexOnColumn("carid"), nullptr);
}

TEST_F(DmvTest, StatsAnalyzed) {
  const ColumnStats* stats = Table("car").GetColumnStats("make");
  ASSERT_NE(stats, nullptr);
  EXPECT_EQ(stats->ndv, DmvMakes().size());
  const ColumnStats* salary = Table("demographics").GetColumnStats("salary");
  ASSERT_NE(salary, nullptr);
  EXPECT_GT(salary->ndv, 1000u);
}

TEST_F(DmvTest, TimeDimensionIsACalendar) {
  const HeapTable& time = Table("time").table();
  const Row& first = time.Get(0);
  EXPECT_EQ(first[1].AsInt64(), 1997);
  EXPECT_EQ(first[2].AsInt64(), 1);
  EXPECT_EQ(first[3].AsInt64(), 1);
  // Row 3651 (the last of 3652) is 2006-12-31: ten years with two leap days.
  const Row& last = time.Get(time.num_rows() - 1);
  EXPECT_EQ(last[1].AsInt64(), 2006);
  EXPECT_EQ(last[2].AsInt64(), 12);
  EXPECT_EQ(last[3].AsInt64(), 31);
}

TEST(DmvConfigTest, RejectsZeroOwners) {
  Catalog catalog;
  DmvConfig config;
  config.num_owners = 0;
  EXPECT_FALSE(GenerateDmv(&catalog, config).ok());
}

TEST(DmvConfigTest, MakeUniverseIsWellFormed) {
  std::map<std::string, int> model_seen;
  for (const auto& m : DmvMakes()) {
    EXPECT_GE(m.tier, 0);
    EXPECT_LE(m.tier, 2);
    for (const char* model : m.models) {
      EXPECT_EQ(model_seen.count(model), 0u) << "duplicate model " << model;
      model_seen[model] = 1;
    }
  }
  std::map<std::string, int> city_seen;
  for (const auto& c : DmvCountries()) {
    for (const char* city : c.cities) {
      EXPECT_EQ(city_seen.count(city), 0u) << "duplicate city " << city;
      city_seen[city] = 1;
    }
  }
}

}  // namespace
}  // namespace ajr
