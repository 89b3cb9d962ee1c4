// RowView: a zero-copy view of one typed-page row.
//
// A RowView is three pointers — the row's cell span, the table's RowLayout,
// and the catalog's StringPool. Typed accessors (GetInt64, GetString, ...)
// decode cells in place; nothing is allocated and no Value is constructed
// until a caller explicitly materializes one (GetValue / ToRow) at a
// projection boundary. Views are valid as long as the owning table is
// alive and unmodified.

#pragma once

#include <cstdint>
#include <string_view>

#include "types/row_layout.h"
#include "types/schema.h"
#include "types/string_pool.h"

namespace ajr {

/// Non-owning typed view of one row's cells.
class RowView {
 public:
  RowView() = default;
  RowView(const uint64_t* cells, const RowLayout* layout, const StringPool* pool)
      : cells_(cells), layout_(layout), pool_(pool) {}

  bool valid() const { return cells_ != nullptr; }
  size_t num_slots() const { return layout_->num_slots(); }
  DataType type(size_t slot) const { return layout_->type(slot); }
  const StringPool* pool() const { return pool_; }

  /// Raw 8-byte cell (see row_layout.h for the encoding).
  uint64_t raw(size_t slot) const { return cells_[slot]; }

  int64_t GetInt64(size_t slot) const { return CellToInt64(cells_[slot]); }
  double GetDouble(size_t slot) const { return CellToDouble(cells_[slot]); }
  bool GetBool(size_t slot) const { return CellToBool(cells_[slot]); }
  uint32_t GetStringId(size_t slot) const { return CellToStringId(cells_[slot]); }
  std::string_view GetString(size_t slot) const {
    return pool_->Get(GetStringId(slot));
  }

  /// INT64 or DOUBLE slot as double (cross-type numeric compares).
  double GetNumeric(size_t slot) const {
    return CellToNumeric(cells_[slot], type(slot));
  }

  /// Materializes one cell as an owned Value (projection / cold paths).
  Value GetValue(size_t slot) const {
    return DecodeCell(cells_[slot], type(slot), pool_);
  }

  /// Materializes the whole row (compat / cold paths).
  Row ToRow() const {
    Row out;
    out.reserve(num_slots());
    for (size_t i = 0; i < num_slots(); ++i) out.push_back(GetValue(i));
    return out;
  }

  /// Equality of this row's `slot` against `other`'s `other_slot`, with the
  /// same cross-type numeric semantics as Value::Compare. Strings share the
  /// catalog's pool, so equal strings are equal ids.
  bool CellEquals(size_t slot, const RowView& other, size_t other_slot) const {
    DataType lt = type(slot);
    DataType rt = other.type(other_slot);
    if (lt == rt) return cells_[slot] == other.cells_[other_slot];
    // Mirrors Value::Compare: numeric cross-compare is the only legal mix.
    AJR_CHECK(lt != DataType::kString && lt != DataType::kBool);
    AJR_CHECK(rt != DataType::kString && rt != DataType::kBool);
    return GetNumeric(slot) == other.GetNumeric(other_slot);
  }

 private:
  const uint64_t* cells_ = nullptr;
  const RowLayout* layout_ = nullptr;
  const StringPool* pool_ = nullptr;
};

}  // namespace ajr
