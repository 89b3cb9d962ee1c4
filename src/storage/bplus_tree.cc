#include "storage/bplus_tree.h"

#include <algorithm>
#include <cassert>
#include <optional>

#include "common/check.h"
#include "common/string_util.h"

namespace ajr {

struct BPlusTree::Node {
  explicit Node(bool leaf) : is_leaf(leaf) {}
  virtual ~Node() = default;
  /// Total entries in this subtree. O(1) for leaves, O(children) for
  /// internal nodes — only used when rebuilding child_sizes at splits.
  virtual size_t TotalEntries() const = 0;
  bool is_leaf;
};

struct BPlusTree::LeafNode final : Node {
  LeafNode() : Node(true) {}
  size_t TotalEntries() const override { return entries.size(); }
  std::vector<EncodedEntry> entries;
  LeafNode* next = nullptr;
};

struct BPlusTree::InternalNode final : Node {
  InternalNode() : Node(false) {}
  size_t TotalEntries() const override {
    size_t total = 0;
    for (size_t s : child_sizes) total += s;
    return total;
  }
  // children.size() == separators.size() + 1; child i holds entries in
  // [separators[i-1], separators[i]).
  std::vector<EncodedEntry> separators;
  std::vector<std::unique_ptr<Node>> children;
  // child_sizes[i] == number of entries in children[i]'s subtree; kept
  // exact so key-range cardinalities cost O(height).
  std::vector<size_t> child_sizes;
};

int BPlusTree::CompareEntries(const EncodedEntry& a, const EncodedEntry& b) const {
  int c;
  if (key_type_ != DataType::kString) {
    c = a.key < b.key ? -1 : (a.key > b.key ? 1 : 0);
  } else {
    c = pool_->Compare(static_cast<uint32_t>(a.key), static_cast<uint32_t>(b.key));
  }
  if (c != 0) return c;
  return a.rid < b.rid ? -1 : (a.rid > b.rid ? 1 : 0);
}

int BPlusTree::CompareToProbe(const EncodedEntry& e, const IndexKey& key,
                              Rid rid) const {
  int c = -CompareProbe(key, e.key);
  if (c != 0) return c;
  return e.rid < rid ? -1 : (e.rid > rid ? 1 : 0);
}

// Index of the child a probe target belongs to: number of separators <= it.
size_t BPlusTree::ChildIndexFor(const std::vector<EncodedEntry>& separators,
                                const IndexKey& key, Rid rid) const {
  size_t lo = 0, hi = separators.size();
  while (lo < hi) {
    size_t mid = (lo + hi) / 2;
    if (CompareToProbe(separators[mid], key, rid) <= 0) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

BPlusTree::BPlusTree(DataType key_type, size_t fanout, const StringPool* pool)
    : key_type_(key_type), fanout_(std::max<size_t>(fanout, 4)), pool_(pool) {
  if (key_type_ == DataType::kString && pool_ == nullptr) {
    owned_pool_ = std::make_unique<StringPool>();
    pool_ = owned_pool_.get();
  }
  root_ = std::make_unique<LeafNode>();
}

BPlusTree::~BPlusTree() = default;
BPlusTree::BPlusTree(BPlusTree&&) noexcept = default;
BPlusTree& BPlusTree::operator=(BPlusTree&&) noexcept = default;

uint64_t BPlusTree::EncodeForStore(const Value& key) {
  AJR_CHECK(key.type() == key_type_);
  switch (key_type_) {
    case DataType::kBool:
      return OrderEncodeBool(key.AsBool());
    case DataType::kInt64:
      return OrderEncodeInt64(key.AsInt64());
    case DataType::kDouble:
      return OrderEncodeDouble(key.AsDouble());
    case DataType::kString: {
      if (owned_pool_ != nullptr) return owned_pool_->Intern(key.AsString());
      // Shared-pool trees are built from table cells; every key must
      // already be interned.
      auto id = pool_->Find(key.AsString());
      AJR_CHECK(id.has_value());
      return *id;
    }
  }
  CheckFailed("unreachable DataType in EncodeForStore", __FILE__, __LINE__);
}

Value BPlusTree::DecodeKey(uint64_t stored) const {
  switch (key_type_) {
    case DataType::kBool:
      return Value(stored != 0);
    case DataType::kInt64:
      return Value(OrderDecodeInt64(stored));
    case DataType::kDouble:
      return Value(OrderDecodeDouble(stored));
    case DataType::kString:
      return Value(std::string(pool_->Get(static_cast<uint32_t>(stored))));
  }
  CheckFailed("unreachable DataType in DecodeKey", __FILE__, __LINE__);
}

void BPlusTree::Insert(const Value& key, Rid rid) {
  EncodedEntry entry{EncodeForStore(key), rid};

  // Recursive insert that reports a split (separator + new right sibling).
  struct SplitResult {
    EncodedEntry separator;
    std::unique_ptr<Node> right;
  };
  struct Inserter {
    const BPlusTree* tree;
    size_t fanout;
    std::optional<SplitResult> operator()(Node* node, EncodedEntry e) {
      if (node->is_leaf) {
        auto* leaf = static_cast<LeafNode*>(node);
        auto it = std::upper_bound(
            leaf->entries.begin(), leaf->entries.end(), e,
            [this](const EncodedEntry& a, const EncodedEntry& b) {
              return tree->CompareEntries(a, b) < 0;
            });
        leaf->entries.insert(it, e);
        if (leaf->entries.size() <= fanout) return std::nullopt;
        // Split the leaf in half; right half moves to a new node.
        auto right = std::make_unique<LeafNode>();
        size_t mid = leaf->entries.size() / 2;
        right->entries.assign(leaf->entries.begin() + mid, leaf->entries.end());
        leaf->entries.resize(mid);
        right->next = leaf->next;
        leaf->next = right.get();
        EncodedEntry sep = right->entries.front();
        return SplitResult{sep, std::move(right)};
      }
      auto* inner = static_cast<InternalNode*>(node);
      size_t ci = ChildIndexForEntry(inner->separators, e);
      auto split = (*this)(inner->children[ci].get(), e);
      if (!split.has_value()) {
        inner->child_sizes[ci] += 1;
        return std::nullopt;
      }
      size_t right_size = split->right->TotalEntries();
      inner->separators.insert(inner->separators.begin() + ci, split->separator);
      inner->children.insert(inner->children.begin() + ci + 1,
                             std::move(split->right));
      inner->child_sizes[ci] = inner->children[ci]->TotalEntries();
      inner->child_sizes.insert(inner->child_sizes.begin() + ci + 1, right_size);
      if (inner->children.size() <= fanout) return std::nullopt;
      // Split the internal node; middle separator moves up.
      auto right = std::make_unique<InternalNode>();
      size_t mid_child = inner->children.size() / 2;  // first child of right node
      EncodedEntry up = inner->separators[mid_child - 1];
      right->separators.assign(inner->separators.begin() + mid_child,
                               inner->separators.end());
      for (size_t i = mid_child; i < inner->children.size(); ++i) {
        right->children.push_back(std::move(inner->children[i]));
        right->child_sizes.push_back(inner->child_sizes[i]);
      }
      inner->separators.resize(mid_child - 1);
      inner->children.resize(mid_child);
      inner->child_sizes.resize(mid_child);
      return SplitResult{up, std::move(right)};
    }
    // Entry-form ChildIndexFor (separators <= e).
    size_t ChildIndexForEntry(const std::vector<EncodedEntry>& separators,
                              const EncodedEntry& e) const {
      size_t lo = 0, hi = separators.size();
      while (lo < hi) {
        size_t mid = (lo + hi) / 2;
        if (tree->CompareEntries(separators[mid], e) <= 0) {
          lo = mid + 1;
        } else {
          hi = mid;
        }
      }
      return lo;
    }
  } inserter{this, fanout_};

  auto split = inserter(root_.get(), entry);
  if (split.has_value()) {
    auto new_root = std::make_unique<InternalNode>();
    new_root->child_sizes.push_back(root_->TotalEntries());
    new_root->child_sizes.push_back(split->right->TotalEntries());
    new_root->separators.push_back(split->separator);
    new_root->children.push_back(std::move(root_));
    new_root->children.push_back(std::move(split->right));
    root_ = std::move(new_root);
    ++height_;
  }
  ++size_;
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
    encoded.push_back({EncodeForStore(e.key), e.rid});
  }
  return BulkLoadEncoded(std::move(encoded));
}

Status BPlusTree::BulkLoadEncoded(std::vector<EncodedEntry> sorted_entries) {
  for (size_t i = 1; i < sorted_entries.size(); ++i) {
    if (CompareEntries(sorted_entries[i], sorted_entries[i - 1]) < 0) {
      return Status::InvalidArgument("BulkLoad input not sorted by (key, rid)");
    }
  }
  size_ = sorted_entries.size();
  // Build the leaf level.
  std::vector<std::unique_ptr<Node>> level;
  std::vector<EncodedEntry> level_firsts;
  const size_t per_leaf = std::max<size_t>(fanout_ * 2 / 3, 2);
  LeafNode* prev = nullptr;
  for (size_t i = 0; i < sorted_entries.size(); i += per_leaf) {
    auto leaf = std::make_unique<LeafNode>();
    size_t end = std::min(i + per_leaf, sorted_entries.size());
    leaf->entries.assign(sorted_entries.begin() + i, sorted_entries.begin() + end);
    if (prev != nullptr) prev->next = leaf.get();
    prev = leaf.get();
    level_firsts.push_back(leaf->entries.front());
    level.push_back(std::move(leaf));
  }
  if (level.empty()) {
    root_ = std::make_unique<LeafNode>();
    height_ = 1;
    return Status::OK();
  }
  // Build internal levels bottom-up.
  height_ = 1;
  const size_t per_node = std::max<size_t>(fanout_ * 2 / 3, 2);
  while (level.size() > 1) {
    std::vector<std::unique_ptr<Node>> next_level;
    std::vector<EncodedEntry> next_firsts;
    size_t i = 0;
    while (i < level.size()) {
      size_t end = std::min(i + per_node, level.size());
      // Avoid a degenerate 1-child trailing node by shrinking this group.
      if (end < level.size() && level.size() - end == 1 && end - i >= 2) end -= 1;
      auto inner = std::make_unique<InternalNode>();
      for (size_t j = i; j < end; ++j) {
        if (j > i) inner->separators.push_back(level_firsts[j]);
        inner->child_sizes.push_back(level[j]->TotalEntries());
        inner->children.push_back(std::move(level[j]));
      }
      next_firsts.push_back(level_firsts[i]);
      next_level.push_back(std::move(inner));
      i = end;
    }
    level = std::move(next_level);
    level_firsts = std::move(next_firsts);
    ++height_;
  }
  root_ = std::move(level.front());
  return Status::OK();
}

void BPlusTree::Probe(const IndexKey& key, WorkCounter* wc,
                      std::vector<Rid>* out) const {
  AJR_CHECK(key.type == key_type_);
  // Identical charge sequence to IndexProbe: one seek, then one charged
  // Next per returned match (the failing match test charges nothing).
  Iterator it = SeekEntry(key, /*rid=*/0, wc);
  while (it.Valid() && ProbeEquals(key, it.key_slot())) {
    out->push_back(it.rid());
    it.Next(wc);
  }
}

uint64_t BPlusTree::Iterator::key_slot() const {
  assert(Valid());
  return static_cast<const LeafNode*>(leaf_)->entries[slot_].key;
}

Value BPlusTree::Iterator::key() const {
  assert(Valid());
  return tree_->DecodeKey(key_slot());
}

Rid BPlusTree::Iterator::rid() const {
  assert(Valid());
  return static_cast<const LeafNode*>(leaf_)->entries[slot_].rid;
}

void BPlusTree::Iterator::Next(WorkCounter* wc) {
  assert(Valid());
  ChargeWork(wc, WorkCounter::kIndexEntryScan);
  auto* leaf = static_cast<LeafNode*>(leaf_);
  ++slot_;
  while (leaf != nullptr && slot_ >= leaf->entries.size()) {
    leaf = leaf->next;
    slot_ = 0;
    ChargeWork(wc, WorkCounter::kIndexNodeVisit);
  }
  leaf_ = leaf;
}

BPlusTree::Iterator BPlusTree::SeekFirst(WorkCounter* wc) const {
  const Node* node = root_.get();
  while (!node->is_leaf) {
    ChargeWork(wc, WorkCounter::kIndexNodeVisit);
    node = static_cast<const InternalNode*>(node)->children.front().get();
  }
  ChargeWork(wc, WorkCounter::kIndexNodeVisit);
  Iterator it;
  it.tree_ = this;
  auto* leaf = static_cast<const LeafNode*>(node);
  // Skip empty leaves (only the root can be empty).
  while (leaf != nullptr && leaf->entries.empty()) leaf = leaf->next;
  it.leaf_ = const_cast<LeafNode*>(leaf);
  it.slot_ = 0;
  return it;
}

BPlusTree::Iterator BPlusTree::SeekEntry(const IndexKey& key, Rid rid,
                                         WorkCounter* wc) const {
  const Node* node = root_.get();
  while (!node->is_leaf) {
    ChargeWork(wc, WorkCounter::kIndexNodeVisit);
    const auto* inner = static_cast<const InternalNode*>(node);
    node = inner->children[ChildIndexFor(inner->separators, key, rid)].get();
  }
  ChargeWork(wc, WorkCounter::kIndexNodeVisit);
  const auto* leaf = static_cast<const LeafNode*>(node);
  // First entry >= (key, rid).
  size_t lo = 0, hi = leaf->entries.size();
  while (lo < hi) {
    size_t mid = (lo + hi) / 2;
    if (CompareToProbe(leaf->entries[mid], key, rid) < 0) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  size_t slot = lo;
  while (leaf != nullptr && slot >= leaf->entries.size()) {
    leaf = leaf->next;
    slot = 0;
    ChargeWork(wc, WorkCounter::kIndexNodeVisit);
  }
  Iterator it;
  it.tree_ = this;
  it.leaf_ = const_cast<LeafNode*>(leaf);
  it.slot_ = slot;
  return it;
}

BPlusTree::Iterator BPlusTree::Seek(const IndexKey& key, bool inclusive,
                                    WorkCounter* wc) const {
  AJR_CHECK(key.type == key_type_);
  if (inclusive) return SeekEntry(key, 0, wc);
  return SeekEntry(key, UINT64_MAX, wc);
}

BPlusTree::Iterator BPlusTree::Seek(const Value& key, bool inclusive,
                                    WorkCounter* wc) const {
  return Seek(EncodeKey(key), inclusive, wc);
}

BPlusTree::Iterator BPlusTree::SeekAfter(const IndexKey& key, Rid rid,
                                         WorkCounter* wc) const {
  AJR_CHECK(key.type == key_type_);
  if (rid == UINT64_MAX) return Seek(key, /*inclusive=*/false, wc);
  return SeekEntry(key, rid + 1, wc);
}

BPlusTree::Iterator BPlusTree::SeekAfter(const Value& key, Rid rid,
                                         WorkCounter* wc) const {
  return SeekAfter(EncodeKey(key), rid, wc);
}

size_t BPlusTree::CountBefore(const IndexKey& key, Rid rid) const {
  size_t count = 0;
  const Node* node = root_.get();
  while (!node->is_leaf) {
    const auto* inner = static_cast<const InternalNode*>(node);
    size_t ci = ChildIndexFor(inner->separators, key, rid);
    for (size_t i = 0; i < ci; ++i) count += inner->child_sizes[i];
    node = inner->children[ci].get();
  }
  const auto* leaf = static_cast<const LeafNode*>(node);
  size_t lo = 0, hi = leaf->entries.size();
  while (lo < hi) {
    size_t mid = (lo + hi) / 2;
    if (CompareToProbe(leaf->entries[mid], key, rid) < 0) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return count + lo;
}

size_t BPlusTree::CountKeyLess(const IndexKey& key) const {
  AJR_CHECK(key.type == key_type_);
  return CountBefore(key, 0);
}

size_t BPlusTree::CountKeyLessEqual(const IndexKey& key) const {
  AJR_CHECK(key.type == key_type_);
  return CountBefore(key, UINT64_MAX);
}

Status BPlusTree::CheckInvariants() const {
  struct Checker {
    const BPlusTree* tree;
    size_t fanout;
    size_t expected_depth = 0;
    const LeafNode* first_leaf = nullptr;

    Status Check(const Node* node, size_t depth, const EncodedEntry* lo,
                 const EncodedEntry* hi) {
      if (node->is_leaf) {
        const auto* leaf = static_cast<const LeafNode*>(node);
        if (expected_depth == 0) expected_depth = depth;
        if (depth != expected_depth) return Status::Internal("leaves at unequal depth");
        if (first_leaf == nullptr) first_leaf = leaf;
        for (size_t i = 0; i < leaf->entries.size(); ++i) {
          if (i > 0 && tree->CompareEntries(leaf->entries[i], leaf->entries[i - 1]) < 0) {
            return Status::Internal("leaf entries out of order");
          }
          if (lo != nullptr && tree->CompareEntries(leaf->entries[i], *lo) < 0) {
            return Status::Internal("leaf entry below lower separator");
          }
          if (hi != nullptr && tree->CompareEntries(leaf->entries[i], *hi) >= 0) {
            return Status::Internal("leaf entry not below upper separator");
          }
        }
        return Status::OK();
      }
      const auto* inner = static_cast<const InternalNode*>(node);
      if (inner->children.size() != inner->separators.size() + 1) {
        return Status::Internal("separator/child count mismatch");
      }
      if (inner->children.size() > fanout) {
        return Status::Internal("internal node overfull");
      }
      if (inner->child_sizes.size() != inner->children.size()) {
        return Status::Internal("child_sizes/children count mismatch");
      }
      for (size_t i = 0; i < inner->children.size(); ++i) {
        if (inner->child_sizes[i] != inner->children[i]->TotalEntries()) {
          return Status::Internal("child_sizes out of sync with subtree");
        }
      }
      for (size_t i = 0; i < inner->children.size(); ++i) {
        const EncodedEntry* child_lo = i == 0 ? lo : &inner->separators[i - 1];
        const EncodedEntry* child_hi =
            i == inner->separators.size() ? hi : &inner->separators[i];
        AJR_RETURN_IF_ERROR(Check(inner->children[i].get(), depth + 1, child_lo, child_hi));
      }
      return Status::OK();
    }
  } checker{this, fanout_};

  AJR_RETURN_IF_ERROR(checker.Check(root_.get(), 1, nullptr, nullptr));

  // Leaf chain must enumerate exactly size_ entries in order.
  size_t count = 0;
  const LeafNode* leaf = checker.first_leaf;
  const EncodedEntry* prev = nullptr;
  while (leaf != nullptr) {
    for (const auto& e : leaf->entries) {
      if (prev != nullptr && CompareEntries(e, *prev) < 0) {
        return Status::Internal("leaf chain out of order");
      }
      prev = &e;
      ++count;
    }
    leaf = leaf->next;
  }
  if (count != size_) {
    return Status::Internal(
        StrCat("leaf chain has ", count, " entries, expected ", size_));
  }
  return Status::OK();
}

}  // namespace ajr
