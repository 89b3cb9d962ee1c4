// HeapTable: append-only in-memory row store addressed by RID.
//
// RIDs are assigned in insertion order (0, 1, 2, ...), which gives the table
// a well-defined physical scan order — the property the paper's
// driving-table switch exploits to build positional predicates for table
// scans ("RID > 100").
//
// Storage format: rows live in fixed-stride typed pages, not vectors of
// Values. Each row is schema.num_columns() contiguous 8-byte cells (see
// types/row_layout.h for the cell codec); strings are interned once in the
// catalog's StringPool, which every table shares, and stored as 32-bit
// ids. When loading ends the catalog seals the pool and RenumberStrings
// rewrites each string cell to its byte-ordered id. Pages hold kPageRows rows
// each and are never reallocated, so a RowView stays valid for the table's
// lifetime. The hot read path hands out zero-copy RowViews; owned Rows are
// materialized only by the compat accessor Get().
//
// Thread safety: the read path (num_rows, Get, View, Fetch, schema, name,
// pool, layout) is const, touches no hidden mutable state, and is safe for
// any number of concurrent readers — the concurrent query runtime shares one
// HeapTable across all workers. Append/NewRow/Reserve are writers and must
// not run concurrently with anything else; the engine's contract is load
// first, serve after (see runtime/query_engine.h).

#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/check.h"
#include "common/status.h"
#include "common/work_counter.h"
#include "types/row_layout.h"
#include "types/row_view.h"
#include "types/schema.h"

namespace ajr {

/// Row identifier: the slot number within a HeapTable, dense from 0.
using Rid = uint64_t;

/// Append-only in-memory table over typed pages.
class HeapTable {
 public:
  /// Rows per page; power of two so rid -> (page, offset) is shift + mask.
  static constexpr size_t kPageRows = 4096;

  /// Strings intern into `pool`, which must outlive the table.
  HeapTable(std::string name, Schema schema, StringPool* pool)
      : name_(std::move(name)), schema_(std::move(schema)), layout_(schema_), pool_(pool) {}

  const std::string& name() const { return name_; }
  const Schema& schema() const { return schema_; }
  const RowLayout& layout() const { return layout_; }
  const StringPool& pool() const { return *pool_; }
  size_t num_rows() const { return num_rows_; }

  /// Appends a row of Values; returns its RID. InvalidArgument if the row
  /// does not match the schema.
  StatusOr<Rid> Append(const Row& row);

  /// Streaming typed appender: writes cells straight into the page with no
  /// Value materialization. Slots must be written in schema order; Finish()
  /// checks arity and returns the RID. One open writer at a time.
  ///
  ///   Rid rid = table.NewRow().I64(id).Str("Mazda").F64(1.5).Finish();
  class RowWriter {
   public:
    RowWriter& I64(int64_t v) { return Put(DataType::kInt64, CellFromInt64(v)); }
    RowWriter& F64(double v) { return Put(DataType::kDouble, CellFromDouble(v)); }
    RowWriter& Bool(bool v) { return Put(DataType::kBool, CellFromBool(v)); }
    RowWriter& Str(std::string_view v) {
      return Put(DataType::kString, CellFromStringId(table_->pool_->Intern(v)));
    }
    Rid Finish();

   private:
    friend class HeapTable;
    RowWriter(HeapTable* table, uint64_t* cells) : table_(table), cells_(cells) {}
    RowWriter& Put(DataType t, uint64_t cell);

    HeapTable* table_;
    uint64_t* cells_;
    size_t slot_ = 0;
  };
  RowWriter NewRow();

  /// Zero-copy typed view of a row. Always bounds-checked (a stale Rid must
  /// abort, not read garbage — the check is one predictable branch).
  RowView View(Rid rid) const {
    AJR_CHECK(rid < num_rows_);
    return RowView(CellsFor(rid), &layout_, pool_);
  }

  /// View access that charges kRowFetch work units (the executor hot path).
  RowView Fetch(Rid rid, WorkCounter* wc) const {
    ChargeWork(wc, WorkCounter::kRowFetch);
    AJR_CHECK(rid < num_rows_);
    return RowView(CellsFor(rid), &layout_, pool_);
  }

  /// Materializes a row as owned Values (compat / cold paths; bounds-checked).
  Row Get(Rid rid) const { return View(rid).ToRow(); }

  /// Reserves page capacity for bulk loading.
  void Reserve(size_t n) { pages_.reserve((n + kPageRows - 1) / kPageRows); }

  /// Rewrites every string cell from id `old` to `new_id[old]`: the map
  /// StringPool::Seal returns (a writer, like Append).
  void RenumberStrings(const std::vector<uint32_t>& new_id);

 private:
  static constexpr size_t kPageShift = 12;  // log2(kPageRows)
  static_assert(kPageRows == size_t{1} << kPageShift);
  static constexpr size_t kPageMask = kPageRows - 1;

  uint64_t* CellsFor(Rid rid) const {
    return pages_[rid >> kPageShift].get() + (rid & kPageMask) * layout_.num_slots();
  }
  /// Cell span for the next row, growing pages as needed (write path).
  uint64_t* AllocRow();

  std::string name_;
  Schema schema_;
  RowLayout layout_;
  StringPool* pool_;
  std::vector<std::unique_ptr<uint64_t[]>> pages_;
  size_t num_rows_ = 0;
  bool writer_open_ = false;
};

}  // namespace ajr
