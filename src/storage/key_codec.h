// IndexKey: a typed probe key for B+-tree traversals.
//
// The tree stores every key as one uint64 slot: the order-preserving
// encoding of the key's cell (types/row_layout.h), so every key type —
// strings included — compares as a plain integer. An IndexKey is the
// external form a probe hands to the tree: the key's type and encoding.
// Keys from cells need nothing else; every table shares the catalog's
// sealed string pool, so a probe built from one table's row searches
// another table's index directly (the join hot path). String literals are
// keyed against that pool and need not be interned in it.

#pragma once

#include <cstdint>

#include "types/row_layout.h"
#include "types/row_view.h"
#include "types/value.h"

namespace ajr {

/// A typed key in probe form.
struct IndexKey {
  DataType type = DataType::kInt64;
  uint64_t enc = 0;  ///< order encoding

  static IndexKey Int64(int64_t v) { return {DataType::kInt64, OrderEncodeInt64(v)}; }
  static IndexKey Double(double v) { return {DataType::kDouble, OrderEncodeDouble(v)}; }
  static IndexKey Bool(bool v) { return {DataType::kBool, OrderEncodeBool(v)}; }
};

/// Probe key for `v`. String Values are keyed against `pool` (the sealed
/// pool of the tree they probe), which other types ignore.
inline IndexKey EncodeKey(const Value& v, const StringPool* pool) {
  if (v.type() == DataType::kString) {
    AJR_CHECK(pool != nullptr);
    return {DataType::kString, OrderEncodeString(v.AsString(), *pool)};
  }
  return {v.type(), OrderEncodeCell(EncodeCell(v, v.type(), nullptr), v.type())};
}

/// Probe key for one cell of `row`.
inline IndexKey EncodeKeyFromCell(const RowView& row, size_t slot) {
  DataType t = row.type(slot);
  return {t, OrderEncodeCell(row.raw(slot), t)};
}

}  // namespace ajr
