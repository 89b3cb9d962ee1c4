#include "expr/evaluator.h"

#include <algorithm>
#include <cassert>

#include "common/check.h"
#include "common/string_util.h"

namespace ajr {

namespace {

inline bool CmpHolds(int c, CompareOp op) {
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

template <typename T>
inline int ThreeWay(T a, T b) {
  return a < b ? -1 : (a > b ? 1 : 0);
}

inline bool IsNumeric(DataType t) {
  return t == DataType::kInt64 || t == DataType::kDouble;
}

}  // namespace

// --- Evaluation ------------------------------------------------------------

bool BoundPredicate::EvalLeaf(const Instr& ins, const RowView& row) const {
  switch (ins.op) {
    case Op::kConstBool:
      return ins.imm.b;
    case Op::kCmpI64:
      return CmpHolds(ThreeWay(row.GetInt64(ins.slot), ins.imm.i64), ins.cmp);
    case Op::kCmpF64:
      return CmpHolds(ThreeWay(row.GetDouble(ins.slot), ins.imm.f64), ins.cmp);
    case Op::kCmpBool:
      return CmpHolds((row.GetBool(ins.slot) ? 1 : 0) - (ins.imm.b ? 1 : 0), ins.cmp);
    case Op::kCmpNum:
      return CmpHolds(ThreeWay(row.GetNumeric(ins.slot), ins.imm.f64), ins.cmp);
    case Op::kCmpStrId: {
      bool eq = row.GetStringId(ins.slot) == ins.imm.sid;
      return ins.cmp == CompareOp::kEq ? eq : !eq;
    }
    case Op::kCmpStrKey:
      return CmpHolds(ThreeWay(OrderEncodeCell(row.raw(ins.slot), DataType::kString),
                               ins.imm.key),
                      ins.cmp);
    case Op::kCmpColI64:
      return CmpHolds(ThreeWay(row.GetInt64(ins.slot), row.GetInt64(ins.slot2)),
                      ins.cmp);
    case Op::kCmpColF64:
      return CmpHolds(ThreeWay(row.GetDouble(ins.slot), row.GetDouble(ins.slot2)),
                      ins.cmp);
    case Op::kCmpColBool:
      return CmpHolds((row.GetBool(ins.slot) ? 1 : 0) - (row.GetBool(ins.slot2) ? 1 : 0),
                      ins.cmp);
    case Op::kCmpColNum:
      return CmpHolds(ThreeWay(row.GetNumeric(ins.slot), row.GetNumeric(ins.slot2)),
                      ins.cmp);
    case Op::kCmpColStr:
      return CmpHolds(ThreeWay(row.GetStringId(ins.slot), row.GetStringId(ins.slot2)),
                      ins.cmp);
    case Op::kInI64: {
      const auto& set = i64_sets_[ins.aux];
      return std::binary_search(set.begin(), set.end(), row.GetInt64(ins.slot));
    }
    case Op::kInF64: {
      const auto& set = f64_sets_[ins.aux];
      return std::binary_search(set.begin(), set.end(), row.GetNumeric(ins.slot));
    }
    case Op::kInStr: {
      const auto& set = str_sets_[ins.aux];
      return std::binary_search(set.begin(), set.end(), row.GetStringId(ins.slot));
    }
    case Op::kInBool: {
      int bit = row.GetBool(ins.slot) ? 2 : 1;
      return (ins.imm.i64 & bit) != 0;
    }
    case Op::kAnd2:
    case Op::kOr2:
    case Op::kNot:
      break;
  }
  CheckFailed("EvalLeaf on non-leaf instruction", __FILE__, __LINE__);
}

bool BoundPredicate::Eval(const RowView& row) const {
  if (flat_) {
    for (const Instr& ins : program_) {
      if (!EvalLeaf(ins, row)) return false;
    }
    return true;
  }
  bool stack[kMaxStack];
  size_t sp = 0;
  for (const Instr& ins : program_) {
    switch (ins.op) {
      case Op::kAnd2: {
        bool b = stack[--sp];
        stack[sp - 1] = stack[sp - 1] && b;
        break;
      }
      case Op::kOr2: {
        bool b = stack[--sp];
        stack[sp - 1] = stack[sp - 1] || b;
        break;
      }
      case Op::kNot:
        stack[sp - 1] = !stack[sp - 1];
        break;
      default:
        stack[sp++] = EvalLeaf(ins, row);
        break;
    }
  }
  return sp == 0 || stack[sp - 1];
}

// --- Compilation -----------------------------------------------------------

/// Lowers expression trees into BoundPredicate programs.
class PredicateCompiler {
 public:
  PredicateCompiler(const Schema& schema, const StringPool& pool, BoundPredicate* out)
      : schema_(schema), pool_(pool), out_(out) {}

  using Op = BoundPredicate::Op;
  using Instr = BoundPredicate::Instr;

  /// True if `e` lowers to exactly one leaf instruction.
  static bool IsLeaf(const Expr& e) {
    switch (e.kind()) {
      case ExprKind::kLiteral:
      case ExprKind::kComparison:
      case ExprKind::kIn:
        return true;
      default:
        return false;
    }
  }

  Status CompileRoot(const Expr& e) {
    if (e.kind() == ExprKind::kAnd) {
      const auto& logical = static_cast<const LogicalExpr&>(e);
      bool all_leaves = !logical.children().empty();
      for (const auto& c : logical.children()) all_leaves &= IsLeaf(*c);
      if (all_leaves) {
        // The dominant shape: conjunction of simple conjuncts. No postfix
        // reductions; Eval runs the early-out leaf loop.
        out_->flat_ = true;
        for (const auto& c : logical.children()) {
          AJR_RETURN_IF_ERROR(CompileLeaf(*c));
        }
        return Status::OK();
      }
    }
    if (IsLeaf(e)) {
      out_->flat_ = true;
      return CompileLeaf(e);
    }
    out_->flat_ = false;
    AJR_RETURN_IF_ERROR(CompilePostfix(e));
    return CheckStackDepth();
  }

 private:
  Status CompilePostfix(const Expr& e) {
    switch (e.kind()) {
      case ExprKind::kLiteral:
      case ExprKind::kComparison:
      case ExprKind::kIn:
        return CompileLeaf(e);
      case ExprKind::kColumnRef:
        return Status::InvalidArgument(
            StrCat("bare column reference used as predicate: ", e.ToString()));
      case ExprKind::kAnd:
      case ExprKind::kOr: {
        const auto& logical = static_cast<const LogicalExpr&>(e);
        Op fold = e.kind() == ExprKind::kAnd ? Op::kAnd2 : Op::kOr2;
        if (logical.children().empty()) {
          // Empty AND is true, empty OR is false (vacuous truth).
          return EmitConstBool(e.kind() == ExprKind::kAnd);
        }
        for (size_t i = 0; i < logical.children().size(); ++i) {
          AJR_RETURN_IF_ERROR(CompilePostfix(*logical.children()[i]));
          if (i > 0) Emit({fold, CompareOp::kEq, 0, 0, 0, {}});
        }
        return Status::OK();
      }
      case ExprKind::kNot: {
        const auto& n = static_cast<const NotExpr&>(e);
        AJR_RETURN_IF_ERROR(CompilePostfix(*n.child()));
        Emit({Op::kNot, CompareOp::kEq, 0, 0, 0, {}});
        return Status::OK();
      }
    }
    return Status::Internal("unreachable expression kind");
  }

  Status CompileLeaf(const Expr& e) {
    switch (e.kind()) {
      case ExprKind::kLiteral: {
        const auto& lit = static_cast<const LiteralExpr&>(e);
        if (lit.value().type() != DataType::kBool) {
          return Status::InvalidArgument(
              StrCat("non-boolean literal used as predicate: ", lit.value().ToString()));
        }
        return EmitConstBool(lit.value().AsBool());
      }
      case ExprKind::kComparison:
        return CompileComparison(static_cast<const ComparisonExpr&>(e));
      case ExprKind::kIn:
        return CompileIn(static_cast<const InExpr&>(e));
      case ExprKind::kColumnRef:
        return Status::InvalidArgument(
            StrCat("bare column reference used as predicate: ", e.ToString()));
      default:
        return Status::Internal("CompileLeaf on non-leaf expr");
    }
  }

  Status CompileComparison(const ComparisonExpr& cmp) {
    const Expr* l = cmp.lhs().get();
    const Expr* r = cmp.rhs().get();
    // Normalize constant <op> column into column <flipped-op> constant.
    CompareOp op = cmp.op();
    if (l->kind() == ExprKind::kLiteral && r->kind() == ExprKind::kColumnRef) {
      std::swap(l, r);
      switch (cmp.op()) {
        case CompareOp::kLt:
          op = CompareOp::kGt;
          break;
        case CompareOp::kLe:
          op = CompareOp::kGe;
          break;
        case CompareOp::kGt:
          op = CompareOp::kLt;
          break;
        case CompareOp::kGe:
          op = CompareOp::kLe;
          break;
        default:
          break;
      }
    }
    if (l->kind() == ExprKind::kColumnRef && r->kind() == ExprKind::kLiteral) {
      AJR_ASSIGN_OR_RETURN(
          size_t col, schema_.ColumnIndex(static_cast<const ColumnRefExpr*>(l)->name()));
      return CompileColConst(col, op, static_cast<const LiteralExpr*>(r)->value(),
                             cmp.ToString());
    }
    if (l->kind() == ExprKind::kColumnRef && r->kind() == ExprKind::kColumnRef) {
      AJR_ASSIGN_OR_RETURN(
          size_t lc, schema_.ColumnIndex(static_cast<const ColumnRefExpr*>(l)->name()));
      AJR_ASSIGN_OR_RETURN(
          size_t rc, schema_.ColumnIndex(static_cast<const ColumnRefExpr*>(r)->name()));
      return CompileColCol(lc, op, rc, cmp.ToString());
    }
    return Status::NotSupported(
        StrCat("unsupported comparison shape: ", cmp.ToString()));
  }

  Status CompileColConst(size_t col, CompareOp op, const Value& v,
                         const std::string& what) {
    DataType ct = schema_.column(col).type;
    Instr ins{};
    ins.cmp = op;
    ins.slot = static_cast<uint16_t>(col);
    if (ct == v.type()) {
      switch (ct) {
        case DataType::kInt64:
          ins.op = Op::kCmpI64;
          ins.imm.i64 = v.AsInt64();
          break;
        case DataType::kDouble:
          ins.op = Op::kCmpF64;
          ins.imm.f64 = v.AsDouble();
          break;
        case DataType::kBool:
          ins.op = Op::kCmpBool;
          ins.imm.b = v.AsBool();
          break;
        case DataType::kString: {
          // Equality against an interned string is one id compare. A
          // constant the pool has never seen can't equal any stored row.
          if (op == CompareOp::kEq || op == CompareOp::kNe) {
            auto id = pool_.Find(v.AsString());
            if (!id.has_value()) return EmitConstBool(op == CompareOp::kNe);
            ins.op = Op::kCmpStrId;
            ins.imm.sid = *id;
            break;
          }
          ins.op = Op::kCmpStrKey;
          ins.imm.key = OrderEncodeString(v.AsString(), pool_);
          break;
        }
      }
      Emit(ins);
      return Status::OK();
    }
    if (IsNumeric(ct) && IsNumeric(v.type())) {
      ins.op = Op::kCmpNum;
      ins.imm.f64 = v.AsNumeric();
      Emit(ins);
      return Status::OK();
    }
    return Status::InvalidArgument(
        StrCat("type mismatch in comparison ", what, ": column is ", DataTypeName(ct),
               ", constant is ", DataTypeName(v.type())));
  }

  Status CompileColCol(size_t lc, CompareOp op, size_t rc, const std::string& what) {
    DataType lt = schema_.column(lc).type;
    DataType rt = schema_.column(rc).type;
    Instr ins{};
    ins.cmp = op;
    ins.slot = static_cast<uint16_t>(lc);
    ins.slot2 = static_cast<uint16_t>(rc);
    if (lt == rt) {
      switch (lt) {
        case DataType::kInt64:
          ins.op = Op::kCmpColI64;
          break;
        case DataType::kDouble:
          ins.op = Op::kCmpColF64;
          break;
        case DataType::kBool:
          ins.op = Op::kCmpColBool;
          break;
        case DataType::kString:
          ins.op = Op::kCmpColStr;
          break;
      }
      Emit(ins);
      return Status::OK();
    }
    if (IsNumeric(lt) && IsNumeric(rt)) {
      ins.op = Op::kCmpColNum;
      Emit(ins);
      return Status::OK();
    }
    return Status::InvalidArgument(
        StrCat("type mismatch in comparison ", what, ": ", DataTypeName(lt), " vs ",
               DataTypeName(rt)));
  }

  Status CompileIn(const InExpr& in) {
    AJR_ASSIGN_OR_RETURN(size_t col, schema_.ColumnIndex(in.column()));
    DataType ct = schema_.column(col).type;
    if (in.values().empty()) return EmitConstBool(false);

    bool all_numeric = true;
    bool all_i64 = true;
    bool all_str = true;
    bool all_bool = true;
    for (const Value& v : in.values()) {
      all_numeric &= IsNumeric(v.type());
      all_i64 &= v.type() == DataType::kInt64;
      all_str &= v.type() == DataType::kString;
      all_bool &= v.type() == DataType::kBool;
    }

    Instr ins{};
    ins.cmp = CompareOp::kEq;
    ins.slot = static_cast<uint16_t>(col);
    switch (ct) {
      case DataType::kInt64: {
        if (all_i64) {
          std::vector<int64_t> set;
          set.reserve(in.values().size());
          for (const Value& v : in.values()) set.push_back(v.AsInt64());
          std::sort(set.begin(), set.end());
          ins.op = Op::kInI64;
          ins.aux = static_cast<uint32_t>(out_->i64_sets_.size());
          out_->i64_sets_.push_back(std::move(set));
          Emit(ins);
          return Status::OK();
        }
        if (all_numeric) return EmitInF64(ins, in);
        break;
      }
      case DataType::kDouble: {
        if (all_numeric) return EmitInF64(ins, in);
        break;
      }
      case DataType::kString: {
        if (all_str) {
          // Strings the pool has never seen match nothing and are simply
          // dropped from the id set.
          std::vector<uint32_t> set;
          for (const Value& v : in.values()) {
            auto id = pool_.Find(v.AsString());
            if (id.has_value()) set.push_back(*id);
          }
          std::sort(set.begin(), set.end());
          ins.op = Op::kInStr;
          ins.aux = static_cast<uint32_t>(out_->str_sets_.size());
          out_->str_sets_.push_back(std::move(set));
          Emit(ins);
          return Status::OK();
        }
        break;
      }
      case DataType::kBool: {
        if (all_bool) {
          int64_t mask = 0;
          for (const Value& v : in.values()) mask |= v.AsBool() ? 2 : 1;
          ins.op = Op::kInBool;
          ins.imm.i64 = mask;
          Emit(ins);
          return Status::OK();
        }
        break;
      }
    }
    return Status::InvalidArgument(
        StrCat("type mismatch in ", in.ToString(), ": column is ", DataTypeName(ct)));
  }

  Status EmitInF64(Instr ins, const InExpr& in) {
    std::vector<double> set;
    set.reserve(in.values().size());
    for (const Value& v : in.values()) set.push_back(v.AsNumeric());
    std::sort(set.begin(), set.end());
    ins.op = Op::kInF64;
    ins.aux = static_cast<uint32_t>(out_->f64_sets_.size());
    out_->f64_sets_.push_back(std::move(set));
    Emit(ins);
    return Status::OK();
  }

  Status EmitConstBool(bool b) {
    Instr ins{};
    ins.op = Op::kConstBool;
    ins.imm.b = b;
    Emit(ins);
    return Status::OK();
  }

  void Emit(const Instr& ins) { out_->program_.push_back(ins); }

  /// Simulates the postfix stack; rejects programs deeper than kMaxStack.
  Status CheckStackDepth() const {
    size_t sp = 0, max_sp = 0;
    for (const Instr& ins : out_->program_) {
      switch (ins.op) {
        case Op::kAnd2:
        case Op::kOr2:
          if (sp < 2) return Status::Internal("postfix underflow");
          --sp;
          break;
        case Op::kNot:
          if (sp < 1) return Status::Internal("postfix underflow");
          break;
        default:
          ++sp;
          max_sp = std::max(max_sp, sp);
          break;
      }
    }
    if (max_sp > BoundPredicate::kMaxStack) {
      return Status::InvalidArgument("predicate nesting too deep");
    }
    return Status::OK();
  }

  const Schema& schema_;
  const StringPool& pool_;
  BoundPredicate* out_;
};

StatusOr<BoundPredicatePtr> BindPredicate(const ExprPtr& expr, const Schema& schema,
                                          const StringPool& pool) {
  auto bound = std::make_unique<BoundPredicate>();
  if (expr == nullptr) {
    // Empty program in flat mode: the always-true predicate.
    return BoundPredicatePtr(std::move(bound));
  }
  PredicateCompiler compiler(schema, pool, bound.get());
  AJR_RETURN_IF_ERROR(compiler.CompileRoot(*expr));
  return BoundPredicatePtr(std::move(bound));
}

}  // namespace ajr
