// Property tests for the order-preserving key encodings and ScanPosition
// ordering: random and adversarial int64/double/string keys, string
// literals the pool lacks among them, checking that encoding preserves
// exactly the Value ordering the engine compares by.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "common/random.h"
#include "storage/heap_table.h"
#include "storage/key_codec.h"
#include "storage/scan_position.h"
#include "types/row_layout.h"
#include "types/string_pool.h"
#include "types/value.h"

namespace ajr {
namespace {

std::vector<int64_t> Int64Corpus(Rng* rng, size_t extra) {
  std::vector<int64_t> vals = {
      std::numeric_limits<int64_t>::min(),
      std::numeric_limits<int64_t>::min() + 1,
      -1,
      0,
      1,
      std::numeric_limits<int64_t>::max() - 1,
      std::numeric_limits<int64_t>::max(),
  };
  for (size_t i = 0; i < extra; ++i) {
    vals.push_back(static_cast<int64_t>(rng->Next64()));
  }
  return vals;
}

std::vector<double> DoubleCorpus(Rng* rng, size_t extra) {
  std::vector<double> vals = {
      -std::numeric_limits<double>::infinity(),
      std::numeric_limits<double>::lowest(),
      -1.0,
      -std::numeric_limits<double>::min(),        // smallest normal magnitude
      -std::numeric_limits<double>::denorm_min(),  // smallest denormal
      -0.0,
      0.0,
      std::numeric_limits<double>::denorm_min(),
      std::numeric_limits<double>::min(),
      1.0,
      std::numeric_limits<double>::max(),
      std::numeric_limits<double>::infinity(),
  };
  for (size_t i = 0; i < extra; ++i) {
    switch (rng->NextUint64(3)) {
      case 0:
        vals.push_back(rng->NextGaussian() * 1e3);
        break;
      case 1:
        vals.push_back(static_cast<double>(rng->NextInt64(-1000, 1000)));
        break;
      default:
        // Random bit patterns, rejecting NaN (NaNs never enter keys).
        double d = std::bit_cast<double>(rng->Next64());
        vals.push_back(std::isnan(d) ? 0.5 : d);
    }
  }
  return vals;
}

TEST(KeyCodecProperty, Int64OrderPreservedAndRoundTrips) {
  Rng rng(42);
  std::vector<int64_t> vals = Int64Corpus(&rng, 300);
  for (int64_t a : vals) {
    EXPECT_EQ(OrderDecodeInt64(OrderEncodeInt64(a)), a);
    for (int64_t b : vals) {
      EXPECT_EQ(a < b, OrderEncodeInt64(a) < OrderEncodeInt64(b))
          << a << " vs " << b;
    }
  }
}

TEST(KeyCodecProperty, DoubleOrderPreservedExactly) {
  Rng rng(43);
  std::vector<double> vals = DoubleCorpus(&rng, 200);
  for (double a : vals) {
    for (double b : vals) {
      EXPECT_EQ(a < b, OrderEncodeDouble(a) < OrderEncodeDouble(b))
          << a << " vs " << b;
      // Strict iff: numeric equality and encoding equality coincide, which
      // is what makes -0.0 probes find stored +0.0 (see row_layout.h).
      EXPECT_EQ(a == b, OrderEncodeDouble(a) == OrderEncodeDouble(b))
          << a << " vs " << b;
    }
  }
}

TEST(KeyCodecProperty, DoubleRoundTripsNumerically) {
  Rng rng(44);
  for (double a : DoubleCorpus(&rng, 300)) {
    double back = OrderDecodeDouble(OrderEncodeDouble(a));
    // -0.0 canonicalizes to +0.0; every other value round-trips bitwise.
    EXPECT_EQ(back, a);
    if (a != 0.0) {
      EXPECT_EQ(std::bit_cast<uint64_t>(back), std::bit_cast<uint64_t>(a));
    }
  }
}

// Stored strings, with a duplicate, and literals the pool lacks: below
// all ("" is not stored), between two strings, and above all.
const std::vector<std::string> kStoredStrings = {
    "a", "aa", "ab", "b", std::string(200, 'z'), "zz\xffsuffix", "ab"};
const std::vector<std::string> kAbsentStrings = {"",  "\x01", "aaa", "abc",
                                                 "c", "\xff", "\xff\xff"};

/// A sealed pool of kStoredStrings.
std::unique_ptr<StringPool> SealedPool() {
  auto pool = std::make_unique<StringPool>();
  for (const std::string& s : kStoredStrings) pool->Intern(s);
  pool->Seal();
  return pool;
}

TEST(KeyCodecProperty, EncodeKeyMatchesOrderEncoders) {
  Rng rng(45);
  for (int64_t v : Int64Corpus(&rng, 50)) {
    EXPECT_EQ(EncodeKey(Value(v), nullptr).enc, OrderEncodeInt64(v));
  }
  for (double v : DoubleCorpus(&rng, 50)) {
    EXPECT_EQ(EncodeKey(Value(v), nullptr).enc, OrderEncodeDouble(v));
  }
  EXPECT_EQ(EncodeKey(Value(true), nullptr).enc, OrderEncodeBool(true));
  auto pool = SealedPool();
  const uint32_t id = *pool->Find("ab");
  const uint64_t enc = EncodeKey(Value("ab"), pool.get()).enc;
  EXPECT_EQ(enc, OrderEncodeCell(CellFromStringId(id), DataType::kString));
  EXPECT_EQ(OrderDecodeCell(enc, DataType::kString), CellFromStringId(id));
}

// A literal keys like the stored string it equals; one the pool lacks
// equals no stored key and sorts between its neighbours.
TEST(KeyCodecProperty, StringKeysFollowByteOrder) {
  auto pool = SealedPool();
  std::vector<std::string> all = kStoredStrings;
  all.insert(all.end(), kAbsentStrings.begin(), kAbsentStrings.end());
  for (const std::string& a : all) {
    const uint64_t ka = OrderEncodeString(a, *pool);
    const bool a_stored = pool->Find(a).has_value();
    EXPECT_EQ(ka % 2 == 1, a_stored) << a;
    for (const std::string& b : all) {
      const uint64_t kb = OrderEncodeString(b, *pool);
      if (a_stored || pool->Find(b).has_value()) {
        EXPECT_EQ(a < b, ka < kb) << a << " vs " << b;
        EXPECT_EQ(a == b, ka == kb) << a << " vs " << b;
      } else {
        // Two absent literals may share a gap, so their keys may tie.
        EXPECT_TRUE(!(a < b) || ka <= kb) << a << " vs " << b;
      }
    }
  }
}

/// Cross-checks ScanPosition's positional predicate against the (key, RID)
/// tuple order defined by Value::Compare — the order the index scan
/// actually produces rows in. `keys` are the rows of a one-column table;
/// each position is keyed from a `probes` literal against the table's
/// sealed pool, and compared with every row through the predicate's hot
/// path.
void CheckPositionalOrder(const std::vector<Value>& keys, const std::vector<Value>& probes,
                          Rng* rng) {
  StringPool pool;
  HeapTable table("t", Schema({{"k", keys.front().type()}}), &pool);
  for (const Value& k : keys) ASSERT_TRUE(table.Append({k}).ok());
  table.RenumberStrings(pool.Seal());
  for (const Value& probe : probes) {
    const uint64_t enc = EncodeKey(probe, &pool).enc;
    for (Rid row = 0; row < keys.size(); ++row) {
      Rid ra = static_cast<Rid>(rng->NextUint64(4));
      Rid rb = static_cast<Rid>(rng->NextUint64(4));
      ScanPosition pos = ScanPosition::AtKeyRid(probe.type(), enc, ra);
      int kc = probe.Compare(keys[row]);
      bool expected = kc < 0 || (kc == 0 && ra < rb);
      EXPECT_EQ(pos.StrictlyBefore(table.View(row), 0, rb), expected)
          << probe.ToString() << "," << ra << " vs " << keys[row].ToString() << ","
          << rb;
    }
  }
}

template <typename T>
std::vector<Value> Values(const std::vector<T>& xs) {
  return std::vector<Value>(xs.begin(), xs.end());
}

TEST(KeyCodecProperty, ScanPositionMatchesTupleOrder) {
  Rng rng(46);
  std::vector<Value> ints = Values(Int64Corpus(&rng, 24));
  CheckPositionalOrder(ints, ints, &rng);
  std::vector<Value> doubles = Values(DoubleCorpus(&rng, 16));
  CheckPositionalOrder(doubles, doubles, &rng);
  std::vector<Value> strs = Values(kStoredStrings);
  std::vector<Value> probes = strs;
  for (const std::string& s : kAbsentStrings) probes.emplace_back(s);
  CheckPositionalOrder(strs, probes, &rng);
  // RID-order positions: pure RID comparison.
  ScanPosition p = ScanPosition::AtRid(10);
  EXPECT_TRUE(p.StrictlyBeforeRid(11));
  EXPECT_FALSE(p.StrictlyBeforeRid(10));
  EXPECT_FALSE(p.StrictlyBeforeRid(9));
}

}  // namespace
}  // namespace ajr
