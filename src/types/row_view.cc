#include "types/row_view.h"

namespace ajr {

bool RowView::CellEquals(size_t slot, const RowView& other, size_t other_slot) const {
  DataType lt = type(slot);
  DataType rt = other.type(other_slot);
  if (lt == rt) {
    if (lt != DataType::kString) return cells_[slot] == other.cells_[other_slot];
    // Same pool: id equality is string equality. Different pools: bytes.
    if (pool_ == other.pool_) return cells_[slot] == other.cells_[other_slot];
    return GetString(slot) == other.GetString(other_slot);
  }
  // Mirrors Value::Compare: numeric cross-compare is the only legal mix.
  AJR_CHECK(lt != DataType::kString && lt != DataType::kBool);
  AJR_CHECK(rt != DataType::kString && rt != DataType::kBool);
  return GetNumeric(slot) == other.GetNumeric(other_slot);
}

RowBuffer::RowBuffer(const Schema& schema, const Row& row) : layout_(schema) {
  AJR_CHECK(schema.RowMatches(row));
  cells_.reserve(row.size());
  for (size_t i = 0; i < row.size(); ++i) {
    cells_.push_back(EncodeCell(row[i], layout_.type(i), &pool_));
  }
}

}  // namespace ajr
