#include "storage/bplus_tree.h"

#include <algorithm>
#include <cstdint>

#include "common/check.h"
#include "common/string_util.h"

namespace ajr {

namespace {

constexpr uintptr_t kCacheLine = 64;

/// Branch-free lower bound: the first i in [0, n) with key_at(i) >= `key`,
/// or n. The loop has a fixed trip count for a given n and selects with a
/// conditional move, so it never mispredicts.
template <typename KeyAt>
size_t BranchFreeLowerBound(size_t n, uint64_t key, KeyAt key_at) {
  if (n == 0) return 0;
  size_t base = 0;
  while (n > 1) {
    size_t half = n / 2;
    base = key_at(base + half) < key ? base + half : base;
    n -= half;
  }
  return base + (key_at(base) < key ? 1 : 0);
}

bool EntryLess(const BPlusTree::EncodedEntry& a, const BPlusTree::EncodedEntry& b) {
  return a.key != b.key ? a.key < b.key : a.rid < b.rid;
}

}  // namespace

BPlusTree::BPlusTree(DataType key_type, size_t fanout, const StringPool* pool)
    : key_type_(key_type),
      leaf_size_(std::max<size_t>(std::max<size_t>(fanout, 4) * 2 / 3, 2)),
      pool_(pool) {
  AJR_CHECK(key_type_ != DataType::kString || (pool_ != nullptr && pool_->sealed()));
}

Value BPlusTree::DecodeKey(uint64_t stored) const {
  return DecodeCell(OrderDecodeCell(stored, key_type_), key_type_, pool_);
}

Status BPlusTree::BulkLoad(std::vector<IndexEntry> sorted_entries) {
  std::vector<EncodedEntry> encoded;
  encoded.reserve(sorted_entries.size());
  for (const IndexEntry& e : sorted_entries) {
    if (e.key.type() != key_type_) {
      return Status::InvalidArgument(
          StrCat("BulkLoad key type ", DataTypeName(e.key.type()), " != index type ",
                 DataTypeName(key_type_)));
    }
    const uint64_t key = EncodeKey(e.key, pool_).enc;
    if (key_type_ == DataType::kString && key % 2 == 0) {
      return Status::InvalidArgument(
          StrCat("BulkLoad key ", e.key.ToString(), " is not in the tree's pool"));
    }
    encoded.push_back({key, e.rid});
  }
  return BulkLoadEncoded(std::move(encoded));
}

Status BPlusTree::BulkLoadEncoded(std::vector<EncodedEntry> sorted_entries) {
  for (size_t i = 1; i < sorted_entries.size(); ++i) {
    if (EntryLess(sorted_entries[i], sorted_entries[i - 1])) {
      return Status::InvalidArgument("BulkLoad input not sorted by (key, rid)");
    }
  }
  entries_ = std::move(sorted_entries);
  leaf_keys_.clear();
  for (size_t i = 0; i < entries_.size(); i += leaf_size_) {
    leaf_keys_.push_back(entries_[i].key);
  }
  // Height of the node tree a bulk load builds: each internal level groups
  // L nodes of the level below, shrinking a group by one rather than
  // leaving a one-child trailing node.
  height_ = 1;
  for (size_t nodes = leaf_keys_.size(); nodes > 1; ++height_) {
    size_t groups = 0;
    for (size_t i = 0; i < nodes; ++groups) {
      size_t end = std::min(i + leaf_size_, nodes);
      if (end < nodes && nodes - end == 1 && end - i >= 2) end -= 1;
      i = end;
    }
    nodes = groups;
  }
  return Status::OK();
}

size_t BPlusTree::KeyLowerBound(uint64_t key) const {
  // The lower bound lies in the last leaf whose first key is < `key`, or
  // starts the leaf after it.
  size_t leaf = BranchFreeLowerBound(leaf_keys_.size(), key,
                                     [this](size_t i) { return leaf_keys_[i]; });
  const size_t begin = (leaf == 0 ? 0 : leaf - 1) * leaf_size_;
  const size_t end = std::min(begin + leaf_size_, entries_.size());
  const EncodedEntry* first = entries_.data() + begin;
  // Issue every cache line of the leaf before the search touches any.
  const uintptr_t last = reinterpret_cast<uintptr_t>(entries_.data() + end);
  uintptr_t line = reinterpret_cast<uintptr_t>(first) & ~(kCacheLine - 1);
  for (; line < last; line += kCacheLine) {
    __builtin_prefetch(reinterpret_cast<const void*>(line));
  }
  return begin + BranchFreeLowerBound(end - begin, key,
                                      [first](size_t i) { return first[i].key; });
}

size_t BPlusTree::LowerBound(uint64_t key, Rid rid) const {
  size_t pos = KeyLowerBound(key);
  if (rid == 0) return pos;
  // RIDs only matter inside the equal-key run that starts at `pos`.
  auto it = std::partition_point(
      entries_.begin() + static_cast<ptrdiff_t>(pos), entries_.end(),
      [key, rid](const EncodedEntry& e) { return e.key == key && e.rid < rid; });
  return static_cast<size_t>(it - entries_.begin());
}

BPlusTree::Iterator BPlusTree::SeekEntry(uint64_t key, Rid rid, WorkCounter* wc) const {
  const size_t n = entries_.size();
  const size_t pos = LowerBound(key, rid);
  const size_t leaf_begin = pos - pos % leaf_size_;
  // The node tree descends to the last leaf whose first entry is <= the
  // target. A lower bound past the end, or on the first entry of a later
  // leaf that is not the target itself, ran off that leaf: one more visit.
  const bool hop = pos == n || (pos == leaf_begin && pos > 0 &&
                                !(entries_[pos].rid == rid && entries_[pos].key == key));
  ChargeWork(wc, (height_ + (hop ? 1 : 0)) * WorkCounter::kIndexNodeVisit);
  Iterator it;
  it.tree_ = this;
  it.pos_ = pos;
  it.leaf_end_ = std::min(leaf_begin + leaf_size_, n);
  return it;
}

void BPlusTree::Probe(const IndexKey& key, WorkCounter* wc,
                      std::vector<Rid>* out) const {
  AJR_CHECK(key.type == key_type_);
  // One seek, then one charged Next per returned match (the failing match
  // test charges nothing).
  Iterator it = SeekEntry(key.enc, /*rid=*/0, wc);
  while (it.Valid() && it.key_slot() == key.enc) {
    out->push_back(it.rid());
    it.Next(wc);
  }
}

BPlusTree::Iterator BPlusTree::SeekFirst(WorkCounter* wc) const {
  ChargeWork(wc, height_ * WorkCounter::kIndexNodeVisit);
  Iterator it;
  it.tree_ = this;
  it.leaf_end_ = std::min(leaf_size_, entries_.size());
  return it;
}

BPlusTree::Iterator BPlusTree::Seek(const IndexKey& key, bool inclusive,
                                    WorkCounter* wc) const {
  AJR_CHECK(key.type == key_type_);
  return SeekEntry(key.enc, inclusive ? 0 : UINT64_MAX, wc);
}

size_t BPlusTree::CountKeyLess(const IndexKey& key) const {
  AJR_CHECK(key.type == key_type_);
  return LowerBound(key.enc, 0);
}

size_t BPlusTree::CountKeyLessEqual(const IndexKey& key) const {
  AJR_CHECK(key.type == key_type_);
  return LowerBound(key.enc, UINT64_MAX);
}

Status BPlusTree::CheckInvariants() const {
  for (size_t i = 1; i < entries_.size(); ++i) {
    if (EntryLess(entries_[i], entries_[i - 1])) {
      return Status::Internal(StrCat("entries out of order at ", i));
    }
  }
  if (leaf_keys_.size() != (entries_.size() + leaf_size_ - 1) / leaf_size_) {
    return Status::Internal(
        StrCat(leaf_keys_.size(), " leaf keys for ", entries_.size(), " entries"));
  }
  for (size_t i = 0; i < leaf_keys_.size(); ++i) {
    if (leaf_keys_[i] != entries_[i * leaf_size_].key) {
      return Status::Internal(StrCat("leaf key ", i, " is not its leaf's first key"));
    }
  }
  return Status::OK();
}

}  // namespace ajr
