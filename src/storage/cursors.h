// Scan cursors: the access paths of driving legs.
//
// A ScanCursor yields the RIDs of one table in a deterministic scan order,
// remembers the position of the last row it returned (so a demoted driving
// leg can build its positional predicate), and can be resumed from a saved
// position (so a re-promoted driving leg continues its original scan —
// Sec 4.2's "the original cursor is also needed").
//
// Each range becomes a [begin, end) pair of entry positions once at
// construction, so per-row range checks are position compares (no key
// compare, even on string keys); the remembered position is a key slot,
// materialized only when asked for.
//
// Thread safety: cursors and probes are stateful per-query objects — one
// owner thread each, never shared. They only *read* the underlying
// HeapTable/BPlusTree (const pointers), so any number of cursors on any
// number of threads may scan the same storage concurrently.

#pragma once

#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "common/work_counter.h"
#include "expr/range_extraction.h"
#include "storage/bplus_tree.h"
#include "storage/heap_table.h"
#include "storage/key_codec.h"
#include "storage/scan_position.h"

namespace ajr {

/// Entries of `tree` within `ranges` (bounds in Value form, as produced by
/// ExtractRanges): the entries a driving index scan over them covers when
/// the ranges are disjoint.
size_t CountRangeEntries(const BPlusTree& tree, const std::vector<KeyRange>& ranges);

/// Iterates the RIDs of a table in a well-defined scan order.
class ScanCursor {
 public:
  virtual ~ScanCursor() = default;

  /// Yields the next RID; false at end of scan.
  virtual bool Next(WorkCounter* wc, Rid* rid) = 0;

  /// Position of the most recently returned row. Invalid before the first
  /// Next(); callers must not ask for it then.
  virtual ScanPosition CurrentPosition() const = 0;

  /// Restarts the scan from the beginning.
  virtual void Reset() = 0;

  /// Continues the scan strictly after `pos` (which must match order()).
  virtual Status ResumeFrom(const ScanPosition& pos) = 0;

  /// The scan order this cursor produces.
  virtual ScanOrder order() const = 0;
};

/// Full scan in RID order.
class TableScanCursor final : public ScanCursor {
 public:
  explicit TableScanCursor(const HeapTable* table) : table_(table) {}

  bool Next(WorkCounter* wc, Rid* rid) override;
  ScanPosition CurrentPosition() const override;
  void Reset() override { next_rid_ = 0; }
  Status ResumeFrom(const ScanPosition& pos) override;
  ScanOrder order() const override { return ScanOrder::kRidOrder; }

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
  void Reset() override;
  Status ResumeFrom(const ScanPosition& pos) override;
  ScanOrder order() const override { return ScanOrder::kKeyRidOrder; }

 private:
  /// One range lower bound in probe form; str views point into ranges_
  /// (owned by this cursor), so they are stable for the cursor's lifetime.
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
  // Set by ResumeFrom: the next Next() consumes this iterator rather than
  // advancing.
  std::optional<BPlusTree::Iterator> pending_;
  // Last-returned entry (cheap slot form; materialized by CurrentPosition).
  uint64_t last_key_ = 0;
  Rid last_rid_ = 0;
  bool has_last_ = false;
  // Position handed to ResumeFrom, reported until the next row is produced.
  std::optional<ScanPosition> resumed_;
};

/// Point-probe helper for inner legs: for one join-key value, yields all
/// matching RIDs in RID order.
class IndexProbe {
 public:
  explicit IndexProbe(const BPlusTree* tree) : tree_(tree) {}

  /// Starts a probe for `key` (charges the traversal). The caller keeps the
  /// key's string bytes alive until the probe is re-seeked or destroyed.
  void Seek(const IndexKey& key, WorkCounter* wc);

  /// Value-form Seek (tests / cold paths): copies string bytes locally.
  void Seek(const Value& key, WorkCounter* wc);

  /// Yields the next RID whose entry key equals the probed key.
  bool Next(WorkCounter* wc, Rid* rid);

 private:
  const BPlusTree* tree_;
  BPlusTree::Iterator iter_;
  IndexKey key_;
  std::string owned_str_;  ///< backing for Value-form string seeks
};

}  // namespace ajr
