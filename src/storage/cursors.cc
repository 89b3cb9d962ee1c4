#include "storage/cursors.h"

#include <cassert>

namespace ajr {

bool TableScanCursor::Next(WorkCounter* wc, Rid* rid) {
  ChargeWork(wc, WorkCounter::kIndexEntryScan);
  if (next_rid_ >= table_->num_rows()) return false;
  *rid = next_rid_++;
  return true;
}

ScanPosition TableScanCursor::CurrentPosition() const {
  assert(next_rid_ > 0 && "CurrentPosition before first Next");
  return ScanPosition::AtRid(next_rid_ - 1);
}

namespace {

// [begin, end) positions of the entries of `tree` inside `r`; begin > end
// for a range that holds nothing.
std::pair<size_t, size_t> RangeSpan(const BPlusTree& tree, const KeyRange& r) {
  size_t begin = r.lo.has_value() ? (r.lo_inclusive ? tree.CountKeyLess(*r.lo)
                                                    : tree.CountKeyLessEqual(*r.lo))
                                  : 0;
  size_t end = r.hi.has_value() ? (r.hi_inclusive ? tree.CountKeyLessEqual(*r.hi)
                                                  : tree.CountKeyLess(*r.hi))
                                : tree.size();
  return {begin, end};
}

}  // namespace

IndexScanCursor::IndexScanCursor(const BPlusTree* tree, std::vector<KeyRange> ranges)
    : tree_(tree), ranges_(std::move(ranges)) {
  lo_.reserve(ranges_.size());
  span_.reserve(ranges_.size());
  for (const KeyRange& r : ranges_) {
    Bound lo;
    if (r.lo.has_value()) lo = {true, EncodeKey(*r.lo, tree_->pool()), r.lo_inclusive};
    lo_.push_back(lo);
    span_.push_back(RangeSpan(*tree_, r));
  }
}

size_t IndexScanCursor::total_entries() const {
  size_t total = 0;
  for (auto [begin, end] : span_) total += end > begin ? end - begin : 0;
  return total;
}

void IndexScanCursor::AlignToRanges(WorkCounter* wc) {
  while (iter_.Valid() && range_idx_ < ranges_.size()) {
    if (BeforeRangeLo()) {
      const Bound& b = lo_[range_idx_];
      iter_ = tree_->Seek(b.key, b.inclusive, wc);
      continue;
    }
    if (PastRangeHi()) {
      ++range_idx_;
      continue;
    }
    return;  // inside the current range
  }
  if (range_idx_ >= ranges_.size()) iter_ = BPlusTree::Iterator();
}

bool IndexScanCursor::Next(WorkCounter* wc, Rid* rid) {
  if (!started_) {
    started_ = true;
    if (ranges_.empty()) return false;
    const Bound& b = lo_.front();
    iter_ = b.present ? tree_->Seek(b.key, b.inclusive, wc) : tree_->SeekFirst(wc);
  } else {
    if (!iter_.Valid()) return false;
    iter_.Next(wc);
  }
  AlignToRanges(wc);
  if (!iter_.Valid()) return false;
  *rid = iter_.rid();
  last_key_ = iter_.key_slot();
  last_rid_ = iter_.rid();
  return true;
}

ScanPosition IndexScanCursor::CurrentPosition() const {
  assert(started_ && "CurrentPosition before first Next");
  return ScanPosition::AtKeyRid(tree_->key_type(), last_key_, last_rid_);
}

}  // namespace ajr
