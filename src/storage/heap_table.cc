#include "storage/heap_table.h"

#include "common/string_util.h"

namespace ajr {

uint64_t* HeapTable::AllocRow() {
  size_t page = num_rows_ >> kPageShift;
  if (page == pages_.size()) {
    size_t cells = kPageRows * layout_.num_slots();
    pages_.push_back(std::make_unique<uint64_t[]>(cells == 0 ? 1 : cells));
  }
  return CellsFor(num_rows_);
}

void HeapTable::RenumberStrings(const std::vector<uint32_t>& new_id) {
  for (Rid rid = 0; rid < num_rows_; ++rid) {
    uint64_t* cells = CellsFor(rid);
    for (size_t slot = 0; slot < layout_.num_slots(); ++slot) {
      if (layout_.type(slot) != DataType::kString) continue;
      cells[slot] = CellFromStringId(new_id[CellToStringId(cells[slot])]);
    }
  }
}

StatusOr<Rid> HeapTable::Append(const Row& row) {
  AJR_CHECK(!writer_open_);
  if (!schema_.RowMatches(row)) {
    return Status::InvalidArgument(
        StrCat("row does not match schema of table '", name_, "' (", schema_.ToString(),
               ")"));
  }
  uint64_t* cells = AllocRow();
  for (size_t i = 0; i < row.size(); ++i) {
    cells[i] = EncodeCell(row[i], layout_.type(i), pool_);
  }
  return static_cast<Rid>(num_rows_++);
}

HeapTable::RowWriter HeapTable::NewRow() {
  AJR_CHECK(!writer_open_);
  writer_open_ = true;
  return RowWriter(this, AllocRow());
}

HeapTable::RowWriter& HeapTable::RowWriter::Put(DataType t, uint64_t cell) {
  AJR_CHECK(slot_ < table_->layout_.num_slots());
  AJR_CHECK(table_->layout_.type(slot_) == t);
  cells_[slot_++] = cell;
  return *this;
}

Rid HeapTable::RowWriter::Finish() {
  AJR_CHECK(slot_ == table_->layout_.num_slots());
  table_->writer_open_ = false;
  return static_cast<Rid>(table_->num_rows_++);
}

}  // namespace ajr
