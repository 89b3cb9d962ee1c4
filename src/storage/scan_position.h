// ScanPosition: a point in a table's scan order.
//
// The paper's driving-table switch must remember how far the old driving
// leg's scan had progressed so a positional predicate can exclude the
// already-processed prefix (Sec 4.2). A position is either
//   - a RID in physical order (table scan):        "RID > 100"
//   - a (key, RID) pair in index order (index scan):
//       "age > 35 OR (age = 35 AND RID > cur_RID)"
//
// Keys are held in their order encoding (types/row_layout.h), strings
// included, so the positional predicate on the probe hot path is one
// integer compare against the candidate row's encoded cell, with no Value
// in sight.

#pragma once

#include <string>

#include "storage/heap_table.h"
#include "types/row_layout.h"
#include "types/row_view.h"

namespace ajr {

/// Scan-order kind for a position / positional predicate.
enum class ScanOrder : uint8_t {
  kRidOrder,     ///< physical (table scan) order
  kKeyRidOrder,  ///< (index key, RID) order
};

/// A point in a scan order; rows strictly after it are "unprocessed".
struct ScanPosition {
  ScanOrder order = ScanOrder::kRidOrder;
  DataType key_type = DataType::kInt64;  ///< meaningful only for kKeyRidOrder
  uint64_t key_enc = 0;                  ///< order encoding of the key
  Rid rid = 0;

  static ScanPosition AtRid(Rid rid) {
    ScanPosition p;
    p.order = ScanOrder::kRidOrder;
    p.rid = rid;
    return p;
  }
  static ScanPosition AtKeyRid(DataType key_type, uint64_t key_enc, Rid rid) {
    ScanPosition p;
    p.order = ScanOrder::kKeyRidOrder;
    p.key_type = key_type;
    p.key_enc = key_enc;
    p.rid = rid;
    return p;
  }

  /// True if a row at (row_key, row_rid) lies strictly after this position
  /// in (key, RID) order, where row_key is `row`'s cell at `slot`. Only
  /// valid for kKeyRidOrder. This is the positional-predicate hot path.
  bool StrictlyBefore(const RowView& row, size_t slot, Rid row_rid) const {
    uint64_t row_enc = OrderEncodeCell(row.raw(slot), key_type);
    if (key_enc != row_enc) return key_enc < row_enc;
    return rid < row_rid;
  }

  /// True if a row at row_rid lies strictly after this position in RID
  /// order. Only valid for kRidOrder.
  bool StrictlyBeforeRid(Rid row_rid) const { return rid < row_rid; }

  /// Numeric keys print their value, string keys their pool id.
  std::string ToString() const {
    if (order == ScanOrder::kRidOrder) {
      return "rid>" + std::to_string(rid);
    }
    const uint64_t cell = OrderDecodeCell(key_enc, key_type);
    std::string key = key_type == DataType::kString
                          ? "string#" + std::to_string(CellToStringId(cell))
                          : DecodeCell(cell, key_type, nullptr).ToString();
    return "(key,rid)>(" + key + "," + std::to_string(rid) + ")";
  }
};

}  // namespace ajr
