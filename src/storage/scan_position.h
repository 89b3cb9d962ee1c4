// ScanPosition: a point in a table's scan order.
//
// The paper's driving-table switch must remember how far the old driving
// leg's scan had progressed so a positional predicate can exclude the
// already-processed prefix (Sec 4.2). A position is either
//   - a RID in physical order (table scan):        "RID > 100"
//   - a (key, RID) pair in index order (index scan):
//       "age > 35 OR (age = 35 AND RID > cur_RID)"
//
// Keys are held in encoded form (the order-preserving uint64 from
// types/row_layout.h, plus owned bytes for string keys), so the positional
// predicate on the probe hot path is an integer compare — or one byte
// compare for strings — against the candidate row's cell, with no Value in
// sight.

#pragma once

#include <string>

#include "storage/heap_table.h"
#include "storage/key_codec.h"
#include "types/row_layout.h"
#include "types/row_view.h"
#include "types/value.h"

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
  uint64_t key_enc = 0;                  ///< order encoding (non-string keys)
  std::string key_str;                   ///< owned bytes (string keys)
  Rid rid = 0;

  static ScanPosition AtRid(Rid rid) {
    ScanPosition p;
    p.order = ScanOrder::kRidOrder;
    p.rid = rid;
    return p;
  }
  static ScanPosition AtKeyRid(const Value& key, Rid rid) {
    ScanPosition p;
    p.order = ScanOrder::kKeyRidOrder;
    p.key_type = key.type();
    if (key.type() == DataType::kString) {
      p.key_str = key.AsString();
    } else {
      p.key_enc = EncodeKey(key).enc;
    }
    p.rid = rid;
    return p;
  }

  /// The key as an owned Value (tests / diagnostics).
  Value key() const {
    switch (key_type) {
      case DataType::kBool:
        return Value(key_enc != 0);
      case DataType::kInt64:
        return Value(OrderDecodeInt64(key_enc));
      case DataType::kDouble:
        return Value(OrderDecodeDouble(key_enc));
      case DataType::kString:
        return Value(key_str);
    }
    CheckFailed("unreachable DataType in ScanPosition::key", __FILE__, __LINE__);
  }

  /// True if a row at (row_key, row_rid) lies strictly after this position
  /// in (key, RID) order, where row_key is `row`'s cell at `slot`. Only
  /// valid for kKeyRidOrder. This is the positional-predicate hot path.
  bool StrictlyBefore(const RowView& row, size_t slot, Rid row_rid) const {
    if (key_type != DataType::kString) {
      uint64_t row_enc = OrderEncodeCell(row.raw(slot), key_type);
      if (key_enc != row_enc) return key_enc < row_enc;
      return rid < row_rid;
    }
    int c = std::string_view(key_str).compare(row.GetString(slot));
    if (c != 0) return c < 0;
    return rid < row_rid;
  }

  /// Value-form variant (tests / reference paths).
  bool StrictlyBefore(const Value& row_key, Rid row_rid) const {
    int c = key().Compare(row_key);
    if (c != 0) return c < 0;
    return rid < row_rid;
  }

  /// True if a row at row_rid lies strictly after this position in RID
  /// order. Only valid for kRidOrder.
  bool StrictlyBeforeRid(Rid row_rid) const { return rid < row_rid; }

  std::string ToString() const {
    if (order == ScanOrder::kRidOrder) {
      return "rid>" + std::to_string(rid);
    }
    return "(key,rid)>(" + key().ToString() + "," + std::to_string(rid) + ")";
  }
};

}  // namespace ajr
