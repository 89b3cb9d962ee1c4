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
    if (r.lo.has_value()) lo = {true, EncodeKey(*r.lo), r.lo_inclusive};
    lo_.push_back(lo);
    span_.push_back(RangeSpan(*tree_, r));
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

size_t CountRangeEntries(const BPlusTree& tree, const std::vector<KeyRange>& ranges) {
  size_t total = 0;
  for (const KeyRange& r : ranges) {
    auto [begin, end] = RangeSpan(tree, r);
    total += end > begin ? end - begin : 0;
  }
  return total;
}

}  // namespace ajr
