#include "expr/evaluator.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "storage/heap_table.h"
#include "types/string_pool.h"

namespace ajr {
namespace {

class EvaluatorTest : public ::testing::Test {
 protected:
  Schema schema_{{{"id", DataType::kInt64},
                  {"make", DataType::kString},
                  {"year", DataType::kInt64},
                  {"price", DataType::kDouble},
                  {"sold", DataType::kBool}}};
  StringPool pool_;
  HeapTable table_{"t", schema_, &pool_};

  void SetUp() override {
    ASSERT_TRUE(
        table_.Append({Value(7), Value("Mazda"), Value(1999), Value(12000.5), Value(true)})
            .ok());
    table_.RenumberStrings(pool_.Seal());
  }

  bool Eval(const ExprPtr& e) {
    auto bound = BindPredicate(e, schema_, pool_);
    EXPECT_TRUE(bound.ok()) << bound.status();
    return (*bound)->Eval(table_.View(0));
  }
};

TEST_F(EvaluatorTest, NullExprIsTrue) { EXPECT_TRUE(Eval(nullptr)); }

TEST_F(EvaluatorTest, ColConstComparisons) {
  EXPECT_TRUE(Eval(ColCmp("make", CompareOp::kEq, Value("Mazda"))));
  EXPECT_FALSE(Eval(ColCmp("make", CompareOp::kEq, Value("BMW"))));
  EXPECT_TRUE(Eval(ColCmp("year", CompareOp::kGt, Value(1998))));
  EXPECT_FALSE(Eval(ColCmp("year", CompareOp::kGt, Value(1999))));
  EXPECT_TRUE(Eval(ColCmp("year", CompareOp::kGe, Value(1999))));
  EXPECT_TRUE(Eval(ColCmp("year", CompareOp::kLt, Value(2000))));
  EXPECT_TRUE(Eval(ColCmp("year", CompareOp::kLe, Value(1999))));
  EXPECT_TRUE(Eval(ColCmp("year", CompareOp::kNe, Value(2005))));
  EXPECT_TRUE(Eval(ColCmp("price", CompareOp::kLt, Value(20000.0))));
}

TEST_F(EvaluatorTest, ConstColIsNormalized) {
  // 1998 < year  ==  year > 1998
  EXPECT_TRUE(Eval(Cmp(CompareOp::kLt, Lit(Value(1998)), Col("year"))));
  // 2000 > year  ==  year < 2000
  EXPECT_TRUE(Eval(Cmp(CompareOp::kGt, Lit(Value(2000)), Col("year"))));
  // 1999 <= year
  EXPECT_TRUE(Eval(Cmp(CompareOp::kLe, Lit(Value(1999)), Col("year"))));
  // 1999 >= year
  EXPECT_TRUE(Eval(Cmp(CompareOp::kGe, Lit(Value(1999)), Col("year"))));
}

TEST_F(EvaluatorTest, ColColComparison) {
  Schema s({{"a", DataType::kInt64}, {"b", DataType::kInt64}});
  HeapTable t("ab", s, &pool_);
  ASSERT_TRUE(t.Append({Value(1), Value(2)}).ok());
  ASSERT_TRUE(t.Append({Value(2), Value(2)}).ok());
  auto bound = BindPredicate(Cmp(CompareOp::kLt, Col("a"), Col("b")), s, pool_);
  ASSERT_TRUE(bound.ok());
  EXPECT_TRUE((*bound)->Eval(t.View(0)));
  EXPECT_FALSE((*bound)->Eval(t.View(1)));
}

TEST_F(EvaluatorTest, AndOrNot) {
  EXPECT_TRUE(Eval(And({ColCmp("make", CompareOp::kEq, Value("Mazda")),
                        ColCmp("year", CompareOp::kGt, Value(1990))})));
  EXPECT_FALSE(Eval(And({ColCmp("make", CompareOp::kEq, Value("Mazda")),
                         ColCmp("year", CompareOp::kGt, Value(2000))})));
  EXPECT_TRUE(Eval(Or({ColCmp("make", CompareOp::kEq, Value("BMW")),
                       ColCmp("make", CompareOp::kEq, Value("Mazda"))})));
  EXPECT_FALSE(Eval(Or({ColCmp("make", CompareOp::kEq, Value("BMW")),
                        ColCmp("make", CompareOp::kEq, Value("Audi"))})));
  EXPECT_TRUE(Eval(Not(ColCmp("make", CompareOp::kEq, Value("BMW")))));
  EXPECT_FALSE(Eval(Not(ColCmp("make", CompareOp::kEq, Value("Mazda")))));
}

TEST_F(EvaluatorTest, InPredicate) {
  EXPECT_TRUE(Eval(In("make", {Value("BMW"), Value("Mazda"), Value("Audi")})));
  EXPECT_FALSE(Eval(In("make", {Value("BMW"), Value("Audi")})));
  EXPECT_FALSE(Eval(In("make", {})));
}

TEST_F(EvaluatorTest, InPredicateEdgeCases) {
  // Single-element sets.
  EXPECT_TRUE(Eval(In("year", {Value(1999)})));
  EXPECT_FALSE(Eval(In("year", {Value(2000)})));
  // Duplicate elements are harmless.
  EXPECT_TRUE(Eval(In("year", {Value(1999), Value(1999), Value(5)})));
  // Int column with double set elements (and vice versa): numeric IN.
  EXPECT_TRUE(Eval(In("year", {Value(1999.0), Value(3.5)})));
  EXPECT_FALSE(Eval(In("year", {Value(1999.5)})));
  EXPECT_TRUE(Eval(In("price", {Value(12000.5), Value(1.0)})));
  EXPECT_FALSE(Eval(In("price", {Value(12000)})));
  // Bool IN.
  EXPECT_TRUE(Eval(In("sold", {Value(true)})));
  EXPECT_FALSE(Eval(In("sold", {Value(false)})));
  EXPECT_TRUE(Eval(In("sold", {Value(false), Value(true)})));
  // Type mismatches are a bind error, not a silent false.
  EXPECT_FALSE(BindPredicate(In("make", {Value(1)}), schema_, pool_).ok());
  EXPECT_FALSE(BindPredicate(In("year", {Value("x")}), schema_, pool_).ok());
}

TEST_F(EvaluatorTest, PooledStringConstantFoldsWhenAbsent) {
  // "Yugo" was never interned: equality folds to constant false / not-equal
  // to constant true, and both still evaluate correctly.
  auto eq = BindPredicate(ColCmp("make", CompareOp::kEq, Value("Yugo")), schema_, pool_);
  auto ne = BindPredicate(ColCmp("make", CompareOp::kNe, Value("Yugo")), schema_, pool_);
  ASSERT_TRUE(eq.ok() && ne.ok());
  EXPECT_FALSE((*eq)->Eval(table_.View(0)));
  EXPECT_TRUE((*ne)->Eval(table_.View(0)));
}

TEST_F(EvaluatorTest, FlatConjunctionAndPostfixIntrospection) {
  auto flat = BindPredicate(And({ColCmp("year", CompareOp::kGt, Value(0)),
                                 ColCmp("price", CompareOp::kLt, Value(1e9))}),
                            schema_, pool_);
  ASSERT_TRUE(flat.ok());
  EXPECT_TRUE((*flat)->is_flat_conjunction());
  auto postfix = BindPredicate(Or({ColCmp("year", CompareOp::kGt, Value(0)),
                                   ColCmp("price", CompareOp::kLt, Value(1e9))}),
                               schema_, pool_);
  ASSERT_TRUE(postfix.ok());
  EXPECT_FALSE((*postfix)->is_flat_conjunction());
}

TEST_F(EvaluatorTest, BoolLiteralPredicate) {
  EXPECT_TRUE(Eval(Lit(Value(true))));
  EXPECT_FALSE(Eval(Lit(Value(false))));
}

TEST_F(EvaluatorTest, ErrorsOnBadShapes) {
  EXPECT_FALSE(BindPredicate(Lit(Value(3)), schema_, pool_).ok());
  EXPECT_FALSE(BindPredicate(Col("make"), schema_, pool_).ok());
  EXPECT_FALSE(
      BindPredicate(ColCmp("nonexistent", CompareOp::kEq, Value(1)), schema_, pool_).ok());
  // literal-vs-literal comparison is not supported
  EXPECT_FALSE(
      BindPredicate(Cmp(CompareOp::kEq, Lit(Value(1)), Lit(Value(1))), schema_, pool_)
          .ok());
}

TEST_F(EvaluatorTest, EvalCountedChargesWork) {
  WorkCounter wc;
  auto bound = BindPredicate(ColCmp("year", CompareOp::kGt, Value(0)), schema_, pool_);
  ASSERT_TRUE(bound.ok());
  (*bound)->EvalCounted(table_.View(0), &wc);
  (*bound)->EvalCounted(table_.View(0), &wc);
  EXPECT_EQ(wc.total(), 2 * WorkCounter::kPredicateEval);
  // Null counter is a no-op.
  EXPECT_TRUE((*bound)->EvalCounted(table_.View(0), nullptr));
}

bool Holds(int c, CompareOp op) {
  switch (op) {
    case CompareOp::kEq:
      return c == 0;
    case CompareOp::kNe:
      return c != 0;
    case CompareOp::kLt:
      return c < 0;
    case CompareOp::kLe:
      return c <= 0;
    case CompareOp::kGt:
      return c > 0;
    case CompareOp::kGe:
      return c >= 0;
  }
  return false;
}

// String compares run on sealed ids: = and <> as id compares, the ordered
// ops as key compares. Each must agree with Value::Compare, against stored
// literals and against literals the pool lacks: below all ("", "Aaa"),
// between two stored strings ("Bentley", "Nissan") and above all ("\xff").
TEST(EvaluatorStringTest, StringComparesAgreeWithValueCompare) {
  const Schema schema({{"s", DataType::kString}, {"t", DataType::kString}});
  StringPool pool;
  HeapTable table("st", schema, &pool);
  const std::vector<std::string> stored = {"Mazda", "Audi", "BMW", "Mazda", "Opel", "Zz\xff"};
  for (size_t i = 0; i < stored.size(); ++i) {
    ASSERT_TRUE(
        table.Append({Value(stored[i]), Value(stored[(i + 3) % stored.size()])}).ok());
  }
  table.RenumberStrings(pool.Seal());
  std::vector<Value> literals(stored.begin(), stored.end());
  for (const char* absent : {"", "Aaa", "Bentley", "Nissan", "\xff"}) {
    ASSERT_FALSE(pool.Find(absent).has_value());
    literals.emplace_back(absent);
  }
  auto eval = [&](const ExprPtr& e, Rid rid) {
    auto bound = BindPredicate(e, schema, pool);
    EXPECT_TRUE(bound.ok()) << bound.status();
    return (*bound)->Eval(table.View(rid));
  };
  for (Rid rid = 0; rid < table.num_rows(); ++rid) {
    const Row row = table.Get(rid);
    for (CompareOp op : {CompareOp::kEq, CompareOp::kNe, CompareOp::kLt, CompareOp::kLe,
                         CompareOp::kGt, CompareOp::kGe}) {
      for (const Value& lit : literals) {
        EXPECT_EQ(eval(ColCmp("s", op, lit), rid), Holds(row[0].Compare(lit), op))
            << row[0].ToString() << " " << CompareOpName(op) << " " << lit.ToString();
        EXPECT_EQ(eval(Cmp(op, Lit(lit), Col("s")), rid), Holds(lit.Compare(row[0]), op))
            << lit.ToString() << " " << CompareOpName(op) << " " << row[0].ToString();
      }
      EXPECT_EQ(eval(Cmp(op, Col("s"), Col("t")), rid), Holds(row[0].Compare(row[1]), op))
          << row[0].ToString() << " " << CompareOpName(op) << " " << row[1].ToString();
    }
    // IN lists of every pair of literals, absent members included.
    for (const Value& a : literals) {
      for (const Value& b : literals) {
        EXPECT_EQ(eval(In("s", {a, b}), rid), row[0] == a || row[0] == b)
            << row[0].ToString() << " IN (" << a.ToString() << ", " << b.ToString() << ")";
      }
    }
  }
}

}  // namespace
}  // namespace ajr
