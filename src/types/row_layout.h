// RowLayout and the cell codec: how typed rows are stored in pages.
//
// Every column occupies one fixed 8-byte cell, so a row of N columns is a
// contiguous span of N uint64_t cells and slot i lives at offset i — no
// per-row headers, no variable-length data inline:
//
//   INT64  -> the two's-complement bits
//   DOUBLE -> the IEEE-754 bits
//   BOOL   -> 0 or 1
//   STRING -> the 32-bit StringPool id, zero-extended
//
// Cells store RAW values. The index layer, the positional predicate and
// ordered predicates additionally need an order-preserving encoding so
// keys compare as plain integers; OrderEncode* below map every type into
// uint64 such that a < b  <=>  OrderEncode(a) < OrderEncode(b). A string
// cell's key is 2·id+1: the catalog seals its pool into byte order before
// any key is built, so ids order like their bytes. A string the pool lacks
// (a literal) keys as 2·r, r being the number of pool strings below it: it
// equals no stored key and sorts between its neighbours.

#pragma once

#include <bit>
#include <cstdint>
#include <string_view>
#include <vector>

#include "common/check.h"
#include "types/schema.h"
#include "types/string_pool.h"

namespace ajr {

// --- Raw cell codec -------------------------------------------------------

inline uint64_t CellFromInt64(int64_t v) { return static_cast<uint64_t>(v); }
// -0.0 is canonicalized to +0.0: the engine compares stored double cells
// and index keys by their bits (CellEquals, B+-tree probes), while
// predicate evaluation compares numerically — distinct bit patterns for
// the two zeros would make `x = 0.0` pass the evaluator yet miss on an
// index probe. Every finite double other than the zeros has unique bits,
// and NaNs never enter cells, so canonicalizing the one aliased value
// makes bit equality coincide with numeric equality.
inline uint64_t CellFromDouble(double v) {
  return std::bit_cast<uint64_t>(v == 0.0 ? 0.0 : v);
}
inline uint64_t CellFromBool(bool v) { return v ? 1u : 0u; }
inline uint64_t CellFromStringId(uint32_t id) { return id; }

inline int64_t CellToInt64(uint64_t c) { return static_cast<int64_t>(c); }
inline double CellToDouble(uint64_t c) { return std::bit_cast<double>(c); }
inline bool CellToBool(uint64_t c) { return c != 0; }
inline uint32_t CellToStringId(uint64_t c) { return static_cast<uint32_t>(c); }

/// Numeric view of a raw cell: INT64 or DOUBLE as double (mirrors
/// Value::AsNumeric for cross-type comparisons).
inline double CellToNumeric(uint64_t c, DataType t) {
  AJR_CHECK(t == DataType::kInt64 || t == DataType::kDouble);
  return t == DataType::kInt64 ? static_cast<double>(CellToInt64(c))
                               : CellToDouble(c);
}

// --- Order-preserving key encodings ----------------------------------------

inline constexpr uint64_t kSignBit = 1ull << 63;

inline uint64_t OrderEncodeInt64(int64_t v) {
  return static_cast<uint64_t>(v) ^ kSignBit;
}
inline int64_t OrderDecodeInt64(uint64_t e) {
  return static_cast<int64_t>(e ^ kSignBit);
}

// Flip all bits of negatives, just the sign bit of non-negatives: total
// order over all finite doubles (and infinities; NaNs never enter keys).
// -0.0 encodes as +0.0 (see CellFromDouble) so a probe key built from a
// literal -0.0 finds stored zeros; consequently a == b <=> enc(a) == enc(b)
// in addition to a < b <=> enc(a) < enc(b).
inline uint64_t OrderEncodeDouble(double v) {
  uint64_t b = std::bit_cast<uint64_t>(v == 0.0 ? 0.0 : v);
  return (b & kSignBit) ? ~b : (b | kSignBit);
}
inline double OrderDecodeDouble(uint64_t e) {
  uint64_t b = (e & kSignBit) ? (e & ~kSignBit) : ~e;
  return std::bit_cast<double>(b);
}

inline uint64_t OrderEncodeBool(bool v) { return v ? 1u : 0u; }

/// Key of string `s` against the sealed `pool` (see file comment).
inline uint64_t OrderEncodeString(std::string_view s, const StringPool& pool) {
  const size_t below = pool.LowerBound(s);
  const bool present = below < pool.size() && pool.Get(static_cast<uint32_t>(below)) == s;
  return 2 * uint64_t{below} + (present ? 1 : 0);
}

/// Order-encodes a RAW cell of type `t`.
inline uint64_t OrderEncodeCell(uint64_t cell, DataType t) {
  switch (t) {
    case DataType::kBool:
      return cell;
    case DataType::kInt64:
      return OrderEncodeInt64(CellToInt64(cell));
    case DataType::kDouble:
      return OrderEncodeDouble(CellToDouble(cell));
    case DataType::kString:
      return 2 * uint64_t{CellToStringId(cell)} + 1;
  }
  CheckFailed("unreachable DataType in OrderEncodeCell", __FILE__, __LINE__);
}

/// Inverse of OrderEncodeCell: the RAW cell of type `t`.
inline uint64_t OrderDecodeCell(uint64_t enc, DataType t) {
  switch (t) {
    case DataType::kBool:
      return enc;
    case DataType::kInt64:
      return CellFromInt64(OrderDecodeInt64(enc));
    case DataType::kDouble:
      return CellFromDouble(OrderDecodeDouble(enc));
    case DataType::kString:
      return CellFromStringId(static_cast<uint32_t>(enc >> 1));
  }
  CheckFailed("unreachable DataType in OrderDecodeCell", __FILE__, __LINE__);
}

// --- RowLayout ------------------------------------------------------------

/// Per-table slot layout derived from a Schema: the column types in slot
/// order. With uniform 8-byte cells the layout is just the type vector, but
/// keeping it a named object gives RowView one pointer to dereference and
/// leaves room for future packing (null bitmaps, 4-byte slots).
class RowLayout {
 public:
  RowLayout() = default;
  explicit RowLayout(const Schema& schema) {
    types_.reserve(schema.num_columns());
    for (const ColumnDef& c : schema.columns()) types_.push_back(c.type);
  }

  size_t num_slots() const { return types_.size(); }
  DataType type(size_t slot) const {
    AJR_CHECK(slot < types_.size());
    return types_[slot];
  }

 private:
  std::vector<DataType> types_;
};

// --- Value <-> cell bridging (cold paths: load, tests, projection) --------

/// Encodes `v` (which must match `t`) into a raw cell, interning strings
/// into `pool` (required for string cells).
inline uint64_t EncodeCell(const Value& v, DataType t, StringPool* pool) {
  AJR_CHECK(v.type() == t);
  switch (t) {
    case DataType::kBool:
      return CellFromBool(v.AsBool());
    case DataType::kInt64:
      return CellFromInt64(v.AsInt64());
    case DataType::kDouble:
      return CellFromDouble(v.AsDouble());
    case DataType::kString:
      AJR_CHECK(pool != nullptr);
      return CellFromStringId(pool->Intern(v.AsString()));
  }
  CheckFailed("unreachable DataType in EncodeCell", __FILE__, __LINE__);
}

/// Decodes a raw cell back into an owned Value.
inline Value DecodeCell(uint64_t cell, DataType t, const StringPool* pool) {
  switch (t) {
    case DataType::kBool:
      return Value(CellToBool(cell));
    case DataType::kInt64:
      return Value(CellToInt64(cell));
    case DataType::kDouble:
      return Value(CellToDouble(cell));
    case DataType::kString:
      AJR_CHECK(pool != nullptr);
      return Value(std::string(pool->Get(CellToStringId(cell))));
  }
  CheckFailed("unreachable DataType in DecodeCell", __FILE__, __LINE__);
}

}  // namespace ajr
