#include "storage/cursors.h"

#include <algorithm>
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

Status TableScanCursor::ResumeFrom(const ScanPosition& pos) {
  if (pos.order != ScanOrder::kRidOrder) {
    return Status::InvalidArgument("TableScanCursor resume needs a RID-order position");
  }
  next_rid_ = pos.rid + 1;
  return Status::OK();
}

IndexScanCursor::IndexScanCursor(const BPlusTree* tree, std::vector<KeyRange> ranges)
    : tree_(tree), ranges_(std::move(ranges)) {
  lo_.reserve(ranges_.size());
  hi_.reserve(ranges_.size());
  for (const KeyRange& r : ranges_) {
    Bound lo, hi;
    if (r.lo.has_value()) lo = {true, EncodeKey(*r.lo), r.lo_inclusive};
    if (r.hi.has_value()) hi = {true, EncodeKey(*r.hi), r.hi_inclusive};
    lo_.push_back(lo);
    hi_.push_back(hi);
  }
}

void IndexScanCursor::Reset() {
  started_ = false;
  range_idx_ = 0;
  pending_.reset();
  has_last_ = false;
  resumed_.reset();
  iter_ = BPlusTree::Iterator();
}

bool IndexScanCursor::BeforeRangeLo() const {
  const Bound& b = lo_[range_idx_];
  if (!b.present) return false;
  int c = tree_->CompareProbe(b.key, iter_.key_slot());
  if (c != 0) return c > 0;  // bound above the key => key below the bound
  return !b.inclusive;       // sitting exactly on an exclusive lower bound
}

bool IndexScanCursor::PastRangeHi() const {
  const Bound& b = hi_[range_idx_];
  if (!b.present) return false;
  int c = tree_->CompareProbe(b.key, iter_.key_slot());
  if (c != 0) return c < 0;
  return !b.inclusive;
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
  if (pending_.has_value()) {
    iter_ = *pending_;
    pending_.reset();
  } else if (!started_) {
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
  has_last_ = true;
  return true;
}

ScanPosition IndexScanCursor::CurrentPosition() const {
  if (has_last_) {
    return ScanPosition::AtKeyRid(tree_->DecodeKey(last_key_), last_rid_);
  }
  // No row produced since ResumeFrom: report the resumed-from point.
  assert(resumed_.has_value() && "CurrentPosition before first Next");
  return *resumed_;
}

Status IndexScanCursor::ResumeFrom(const ScanPosition& pos) {
  if (pos.order != ScanOrder::kKeyRidOrder) {
    return Status::InvalidArgument(
        "IndexScanCursor resume needs a (key,RID)-order position");
  }
  started_ = true;
  range_idx_ = 0;
  pending_ = tree_->SeekAfter(pos.AsIndexKey(), pos.rid, nullptr);
  resumed_ = pos;
  has_last_ = false;
  return Status::OK();
}

void IndexProbe::Seek(const IndexKey& key, WorkCounter* wc) {
  key_ = key;
  iter_ = tree_->Seek(key_, /*inclusive=*/true, wc);
}

void IndexProbe::Seek(const Value& key, WorkCounter* wc) {
  if (key.type() == DataType::kString) {
    owned_str_ = key.AsString();
    key_ = IndexKey::String(owned_str_);
  } else {
    key_ = EncodeKey(key);
  }
  iter_ = tree_->Seek(key_, /*inclusive=*/true, wc);
}

bool IndexProbe::Next(WorkCounter* wc, Rid* rid) {
  if (!iter_.Valid()) return false;
  if (!tree_->ProbeEquals(key_, iter_.key_slot())) return false;
  *rid = iter_.rid();
  iter_.Next(wc);
  return true;
}

size_t CountRangeEntries(const BPlusTree& tree, const KeyRange& range) {
  size_t hi = range.hi.has_value()
                  ? (range.hi_inclusive ? tree.CountKeyLessEqual(*range.hi)
                                        : tree.CountKeyLess(*range.hi))
                  : tree.size();
  size_t lo = range.lo.has_value()
                  ? (range.lo_inclusive ? tree.CountKeyLess(*range.lo)
                                        : tree.CountKeyLessEqual(*range.lo))
                  : 0;
  return hi > lo ? hi - lo : 0;
}

size_t CountRangeEntriesAfter(const BPlusTree& tree,
                              const std::vector<KeyRange>& ranges,
                              const std::optional<ScanPosition>& pos) {
  size_t at_or_before_pos =
      pos.has_value()
          ? tree.size() - tree.CountEntriesAfter(pos->AsIndexKey(), pos->rid)
          : 0;
  size_t total = 0;
  for (const auto& r : ranges) {
    size_t in_range = CountRangeEntries(tree, r);
    if (pos.has_value()) {
      size_t lo = r.lo.has_value()
                      ? (r.lo_inclusive ? tree.CountKeyLess(*r.lo)
                                        : tree.CountKeyLessEqual(*r.lo))
                      : 0;
      // Entries in the range that are <= pos.
      size_t processed =
          at_or_before_pos > lo ? std::min(at_or_before_pos - lo, in_range) : 0;
      in_range -= processed;
    }
    total += in_range;
  }
  return total;
}

}  // namespace ajr
