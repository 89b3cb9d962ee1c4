// Predicate binding and evaluation.
//
// BindPredicate resolves column names against a Schema once and lowers the
// expression tree into a flat program over column slots: an array of typed
// compare/membership instructions evaluated in a loop — no virtual calls,
// no Value construction, no per-eval allocation. The dominant shape (a
// conjunction of simple conjuncts) runs as a sequential early-out leaf
// loop; general boolean structure runs as a small postfix program over a
// fixed bool stack.
//
// Programs evaluate RowViews (zero-copy views into a table's typed pages);
// loose Value rows are evaluated by viewing their table row instead (see
// HeapTable::View). String constants are resolved against the catalog's
// sealed StringPool: equality and IN become id compares, ordered compares
// key compares (see the key codec in types/row_layout.h).
//
// Evaluation optionally charges work units so the adaptive layer can
// measure probe cost deterministically.

#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/work_counter.h"
#include "expr/expr.h"
#include "types/row_view.h"
#include "types/schema.h"
#include "types/string_pool.h"

namespace ajr {

/// A predicate compiled against a fixed schema; evaluates rows to bool.
class BoundPredicate {
 public:
  /// Evaluates the predicate on a typed row view.
  bool Eval(const RowView& row) const;

  /// Eval plus work accounting (one kPredicateEval unit per call).
  bool EvalCounted(const RowView& row, WorkCounter* wc) const {
    ChargeWork(wc, WorkCounter::kPredicateEval);
    return Eval(row);
  }

  /// Introspection (tests): program length and whether the fast
  /// conjunction loop applies.
  size_t num_instructions() const { return program_.size(); }
  bool is_flat_conjunction() const { return flat_; }

 private:
  friend class PredicateCompiler;

  /// Max bool-stack depth for postfix programs; binding rejects deeper
  /// nestings (far beyond any real predicate).
  static constexpr size_t kMaxStack = 64;

  enum class Op : uint8_t {
    kConstBool,   // imm.b
    kCmpI64,      // row[slot] <cmp> imm.i64
    kCmpF64,      // row[slot] <cmp> imm.f64
    kCmpBool,     // row[slot] <cmp> imm.b
    kCmpNum,      // numeric row[slot] <cmp> imm.f64 (cross-type constant)
    kCmpStrId,    // row[slot] ==/!= imm.sid (pool-resolved)
    kCmpStrKey,   // order key of row[slot] <cmp> imm.key
    kCmpColI64,   // row[slot] <cmp> row[slot2]
    kCmpColF64,
    kCmpColBool,
    kCmpColNum,   // mixed numeric column pair
    kCmpColStr,   // byte-ordered ids of one pool
    kInI64,       // row[slot] in i64_sets_[aux]
    kInF64,       // numeric row[slot] in f64_sets_[aux]
    kInStr,       // row[slot]'s id in str_sets_[aux]
    kInBool,      // imm.i64 bitmask: bit0 = false in set, bit1 = true
    kAnd2,        // postfix: pop b, a; push a && b
    kOr2,         // postfix: pop b, a; push a || b
    kNot,         // postfix: negate top of stack
  };

  union Imm {
    bool b;
    int64_t i64;
    double f64;
    uint32_t sid;
    uint64_t key;
  };

  struct Instr {
    Op op;
    CompareOp cmp;
    uint16_t slot;
    uint16_t slot2;
    uint32_t aux;
    Imm imm;
  };

  bool EvalLeaf(const Instr& ins, const RowView& row) const;

  std::vector<Instr> program_;
  bool flat_ = true;  ///< program is a conjunction of leaves (early-out loop)
  std::vector<std::vector<int64_t>> i64_sets_;
  std::vector<std::vector<double>> f64_sets_;
  std::vector<std::vector<uint32_t>> str_sets_;  ///< sorted pool ids
};

using BoundPredicatePtr = std::unique_ptr<const BoundPredicate>;

/// Compiles `expr` (boolean-valued) against `schema`, resolving string
/// constants against `pool`, the catalog's sealed pool. String equality and
/// IN lower to id compares, with constants absent from the pool folding to
/// false (true for <>); ordered compares lower to key compares, which place
/// absent constants between their neighbours.
///
/// Returns InvalidArgument for non-boolean shapes (e.g. a bare literal of
/// non-bool type) or type-mismatched comparisons, NotFound for unknown
/// columns, NotSupported for comparison shapes the engine doesn't evaluate.
/// A null `expr` is the always-true predicate.
StatusOr<BoundPredicatePtr> BindPredicate(const ExprPtr& expr, const Schema& schema,
                                          const StringPool& pool);

}  // namespace ajr
