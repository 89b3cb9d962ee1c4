#include "types/string_pool.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

namespace ajr {
namespace {

// First-seen order is far from byte order: "", prefixes of one another,
// bytes above 0x7f (which sort after ASCII), and duplicates.
const std::vector<std::string> kCorpus = {
    "zebra", "", "ab", "a", "\xff", "abc", "a\xff", "ab", "B", "", "\xff\x01", "zebra"};

TEST(StringPoolTest, SealOrdersIdsByBytes) {
  StringPool pool;
  std::vector<uint32_t> old_ids;
  for (const std::string& s : kCorpus) old_ids.push_back(pool.Intern(s));
  const size_t n = pool.size();
  std::vector<std::string> before;
  for (uint32_t id = 0; id < n; ++id) before.emplace_back(pool.Get(id));

  const std::vector<uint32_t> new_id = pool.Seal();
  EXPECT_TRUE(pool.sealed());
  ASSERT_EQ(new_id.size(), n);
  // The map is a permutation that keeps every string's bytes.
  std::vector<uint32_t> sorted = new_id;
  std::sort(sorted.begin(), sorted.end());
  for (uint32_t i = 0; i < n; ++i) EXPECT_EQ(sorted[i], i);
  for (uint32_t old = 0; old < n; ++old) {
    EXPECT_EQ(pool.Get(new_id[old]), before[old]) << "old id " << old;
    EXPECT_EQ(pool.Find(before[old]), new_id[old]);
  }
  // Ids follow byte order.
  for (uint32_t id = 1; id < n; ++id) {
    EXPECT_LT(pool.Get(id - 1), pool.Get(id)) << "id " << id;
  }
  // Duplicates interned before the seal still share one id.
  EXPECT_EQ(new_id[old_ids[0]], new_id[old_ids[11]]);
  EXPECT_EQ(new_id[old_ids[1]], new_id[old_ids[9]]);
}

TEST(StringPoolTest, SecondSealIsIdentity) {
  StringPool pool;
  for (const std::string& s : kCorpus) pool.Intern(s);
  pool.Seal();
  const std::vector<uint32_t> again = pool.Seal();
  ASSERT_EQ(again.size(), pool.size());
  for (uint32_t id = 0; id < again.size(); ++id) EXPECT_EQ(again[id], id);
}

TEST(StringPoolTest, LowerBoundCountsStringsBelow) {
  StringPool pool;
  for (const std::string& s : kCorpus) pool.Intern(s);
  pool.Seal();
  auto brute = [&pool](const std::string& s) {
    size_t below = 0;
    for (uint32_t id = 0; id < pool.size(); ++id) below += pool.Get(id) < s ? 1 : 0;
    return below;
  };
  // Present strings: their own id.
  for (const std::string& s : kCorpus) {
    EXPECT_EQ(pool.LowerBound(s), *pool.Find(s)) << s;
  }
  // Absent strings: between two pool strings, above all. "" is stored, so
  // nothing is below all but "" itself (a present string, id 0).
  for (const std::string& s : {std::string("aa"), std::string("abd"), std::string("C"),
                               std::string("\xff\xff"), std::string("\xff\x00", 2)}) {
    ASSERT_FALSE(pool.Find(s).has_value()) << s;
    EXPECT_EQ(pool.LowerBound(s), brute(s)) << s;
  }
  EXPECT_EQ(pool.LowerBound(""), 0u);
  EXPECT_EQ(pool.LowerBound("\xff\xff"), pool.size());
  // A pool without "" has strings above an absent "".
  StringPool no_empty;
  no_empty.Intern("m");
  no_empty.Seal();
  EXPECT_EQ(no_empty.LowerBound(""), 0u);
  EXPECT_EQ(no_empty.LowerBound("a"), 0u);
  EXPECT_EQ(no_empty.LowerBound("z"), 1u);
}

TEST(StringPoolDeathTest, SealedPoolTakesNoNewStrings) {
  StringPool pool;
  for (const std::string& s : kCorpus) pool.Intern(s);
  pool.Seal();
  // An existing string keeps its id.
  EXPECT_EQ(pool.Intern("abc"), *pool.Find("abc"));
  EXPECT_DEATH(pool.Intern("new"), "AJR_CHECK failed");
}

}  // namespace
}  // namespace ajr
