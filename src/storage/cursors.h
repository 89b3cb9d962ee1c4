// Scan cursors: the access paths of driving legs.
//
// A ScanCursor yields the RIDs of one table in a deterministic scan order
// and remembers the position of the last row it returned, so a demoted
// driving leg can build its positional predicate. Cursors only move
// forward: a demoted leg keeps its cursor object, and a re-promotion
// continues that same scan (Sec 4.2's "the original cursor is also
// needed").
//
// Each range becomes a [begin, end) pair of entry positions once at
// construction, so per-row range checks are position compares (no key
// compare), and the scan's size is known before its first row; the
// remembered position is the stored key slot, which is already the
// positional predicate's order encoding.
//
// Thread safety: cursors are stateful per-query objects — one owner thread
// each, never shared. They only *read* the underlying HeapTable/BPlusTree
// (const pointers), so any number of cursors on any number of threads may
// scan the same storage concurrently.

#pragma once

#include <utility>
#include <vector>

#include "common/work_counter.h"
#include "expr/range_extraction.h"
#include "storage/bplus_tree.h"
#include "storage/heap_table.h"
#include "storage/key_codec.h"
#include "storage/scan_position.h"

namespace ajr {

/// Iterates the RIDs of a table in a well-defined scan order.
class ScanCursor {
 public:
  virtual ~ScanCursor() = default;

  /// Yields the next RID; false at end of scan.
  virtual bool Next(WorkCounter* wc, Rid* rid) = 0;

  /// Position of the most recently returned row. Invalid before the first
  /// Next(); callers must not ask for it then.
  virtual ScanPosition CurrentPosition() const = 0;

  /// Entries the whole scan yields, known before the first Next().
  virtual size_t total_entries() const = 0;
};

/// Full scan in RID order.
class TableScanCursor final : public ScanCursor {
 public:
  explicit TableScanCursor(const HeapTable* table) : table_(table) {}

  bool Next(WorkCounter* wc, Rid* rid) override;
  ScanPosition CurrentPosition() const override;
  size_t total_entries() const override { return table_->num_rows(); }

 private:
  const HeapTable* table_;
  Rid next_rid_ = 0;
};

/// Multi-range scan over a B+-tree in (key, RID) order. `ranges` must be
/// sorted and disjoint (as produced by ExtractRanges / NormalizeRanges).
class IndexScanCursor final : public ScanCursor {
 public:
  IndexScanCursor(const BPlusTree* tree, std::vector<KeyRange> ranges);

  bool Next(WorkCounter* wc, Rid* rid) override;
  ScanPosition CurrentPosition() const override;
  size_t total_entries() const override;

 private:
  /// One range lower bound in probe form.
  struct Bound {
    bool present = false;
    IndexKey key;
    bool inclusive = false;
  };

  // Moves iter_ forward until it sits inside some range (possibly reseeking
  // at range lower bounds); leaves it invalid when all ranges are exhausted.
  void AlignToRanges(WorkCounter* wc);
  // True if iter_ is below / above ranges_[range_idx_]'s entry positions.
  bool BeforeRangeLo() const { return iter_.position() < span_[range_idx_].first; }
  bool PastRangeHi() const { return iter_.position() >= span_[range_idx_].second; }

  const BPlusTree* tree_;
  std::vector<KeyRange> ranges_;
  std::vector<Bound> lo_;  ///< encoded lower bounds, parallel to ranges_
  /// [begin, end) entry positions of each range, parallel to ranges_.
  std::vector<std::pair<size_t, size_t>> span_;
  BPlusTree::Iterator iter_;
  size_t range_idx_ = 0;
  bool started_ = false;
  // Last-returned entry (stored key slot and RID).
  uint64_t last_key_ = 0;
  Rid last_rid_ = 0;
};

}  // namespace ajr
