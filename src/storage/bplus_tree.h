// BPlusTree: an immutable, bulk-loaded secondary index over (key, RID) pairs.
//
// Entries are ordered lexicographically by (key, RID), so duplicate keys are
// supported and every scan — full, range, or point probe — yields RIDs in
// the deterministic (key, RID) order the paper's positional predicates rely
// on ("age > 35 OR (age = 35 AND RID > cur_RID)").
//
// Layout: flat. BulkLoad moves the sorted entries into one array. Leaf i is
// the entries [i·L, min((i+1)·L, n)), with L = max(fanout·2/3, 2), the leaf
// fill of a classic bulk load. One key-only array holds each leaf's first
// key. A lookup is a branch-free lower bound over those leaf-first
// keys, a prefetch of every cache line of the chosen leaf, and a branch-free
// lower bound inside it; RIDs are compared only inside an equal-key run.
// There is no Insert: the tree never changes after BulkLoad.
//
// Key representation: every stored key is one uint64 slot, the
// order-preserving encoding of its cell from types/row_layout.h, so every
// comparison on the probe path is a single integer compare, for string keys
// too, and no Value is constructed. A string tree keeps the sealed string
// pool its keys' ids come from, only to key Value literals and to decode
// keys. Probes come in as IndexKey (see key_codec.h).
//
// Charges: traversals charge work units to an optional WorkCounter as the
// node tree a bulk load builds would, so probe costs are deterministic and
// match the optimizer's Eq 1 node-visit model. That tree has the leaves
// above under internal levels that group L children per node and never
// leave a one-child trailing node; height() is its height. A seek charges
// height() kIndexNodeVisit, plus one more when its lower bound is past the
// end, or is the first entry of a later leaf and is not the target itself
// (the descent picked the previous leaf and hopped). Next charges
// kIndexEntryScan, plus one kIndexNodeVisit when it reaches a leaf end or
// the array end.
//
// Thread safety: BulkLoad requires exclusive access; build indexes before
// sharing the tree with the query runtime. Every read entry point is const
// and the tree holds no position, so concurrent readers are race-free; each
// Iterator is private to its caller. Per-query WorkCounters must not be
// shared across threads.

#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <vector>

#include "common/status.h"
#include "common/work_counter.h"
#include "storage/heap_table.h"
#include "storage/key_codec.h"
#include "types/string_pool.h"
#include "types/value.h"

namespace ajr {

/// One index entry in external (Value) form: tests and BulkLoad compat.
struct IndexEntry {
  Value key;
  Rid rid;

  /// Lexicographic (key, rid) three-way compare.
  int Compare(const IndexEntry& other) const {
    int c = key.Compare(other.key);
    if (c != 0) return c;
    return rid < other.rid ? -1 : (rid > other.rid ? 1 : 0);
  }
  bool operator<(const IndexEntry& o) const { return Compare(o) < 0; }
  bool operator==(const IndexEntry& o) const { return Compare(o) == 0; }
};

/// The only index structure; perfbench still selects it through this enum.
enum class IndexBackend { kBTree };

/// Flat bulk-loaded B+-tree. Keys are uint64 slots of one DataType.
class BPlusTree {
 public:
  /// One entry in stored form: encoded key slot + RID.
  struct EncodedEntry {
    uint64_t key;
    Rid rid;
  };

  /// Creates an empty tree. `fanout` (minimum 4) sets the leaf size L and
  /// the modeled internal fan-in (see file comment). String trees need the
  /// sealed `pool` their keys come from; it must outlive the tree.
  explicit BPlusTree(DataType key_type, size_t fanout = 64,
                     const StringPool* pool = nullptr);

  BPlusTree(const BPlusTree&) = delete;
  BPlusTree& operator=(const BPlusTree&) = delete;
  BPlusTree(BPlusTree&&) noexcept = default;
  BPlusTree& operator=(BPlusTree&&) noexcept = default;

  DataType key_type() const { return key_type_; }
  size_t size() const { return entries_.size(); }
  /// Modeled tree height in levels (1 = just a leaf).
  size_t height() const { return height_; }

  /// Point probe: appends all RIDs whose key equals `key` to `out` in
  /// ascending RID order and charges one seek plus one Next per match to
  /// `wc` (null = no charging).
  void Probe(const IndexKey& key, WorkCounter* wc, std::vector<Rid>* out) const;

  /// The pool string keys come from (null for non-string trees).
  const StringPool* pool() const { return pool_; }

  /// Replaces the tree contents from entries sorted by (key, rid).
  /// InvalidArgument if the entries are not sorted, or a string key is not
  /// in the tree's pool.
  Status BulkLoad(std::vector<IndexEntry> sorted_entries);

  /// BulkLoad in stored form: `sorted_entries` must already be order
  /// encoded and sorted by (key, rid); the tree takes the array over. The
  /// catalog's index build uses this to go straight from page cells to the
  /// tree with no Value materialization.
  Status BulkLoadEncoded(std::vector<EncodedEntry> sorted_entries);

  /// Materializes a stored key slot as an owned Value.
  Value DecodeKey(uint64_t stored) const;

  /// Forward iterator over the entries: a position in the (key, RID) order
  /// and the end of its leaf. Obtained from the Seek* methods; walking past
  /// the last entry makes it invalid.
  class Iterator {
   public:
    Iterator() = default;

    bool Valid() const { return pos_ < leaf_end_; }
    /// Index of the current entry in (key, RID) order; counts and range
    /// positions (CountKeyLess, ...) are in the same coordinates.
    size_t position() const { return pos_; }
    /// Stored key slot (materialize via the owning tree's DecodeKey).
    uint64_t key_slot() const {
      assert(Valid());
      return tree_->entries_[pos_].key;
    }
    /// Materialized key (tests / diagnostics; allocates for strings).
    Value key() const { return tree_->DecodeKey(key_slot()); }
    Rid rid() const {
      assert(Valid());
      return tree_->entries_[pos_].rid;
    }

    /// Advances one entry, charging kIndexEntryScan (plus kIndexNodeVisit
    /// when it reaches a leaf end or the array end).
    void Next(WorkCounter* wc) {
      assert(Valid());
      ChargeWork(wc, WorkCounter::kIndexEntryScan);
      if (++pos_ == leaf_end_) {
        ChargeWork(wc, WorkCounter::kIndexNodeVisit);
        leaf_end_ = std::min(leaf_end_ + tree_->leaf_size_, tree_->size());
      }
    }

   private:
    friend class BPlusTree;
    const BPlusTree* tree_ = nullptr;
    size_t pos_ = 0;
    size_t leaf_end_ = 0;
  };

  /// First entry of the whole tree.
  Iterator SeekFirst(WorkCounter* wc) const;

  /// First entry with key >= `key` (inclusive) or key > `key` (exclusive).
  Iterator Seek(const IndexKey& key, bool inclusive, WorkCounter* wc) const;
  Iterator Seek(const Value& key, bool inclusive, WorkCounter* wc) const {
    return Seek(EncodeKey(key, pool_), inclusive, wc);
  }

  /// Number of entries with key strictly less than `key`: the position of
  /// its lower bound (the "key range cardinality" statistic commercial
  /// indexes expose; used to size driving scans).
  size_t CountKeyLess(const IndexKey& key) const;
  size_t CountKeyLess(const Value& key) const {
    return CountKeyLess(EncodeKey(key, pool_));
  }

  /// Number of entries with key <= `key`.
  size_t CountKeyLessEqual(const IndexKey& key) const;
  size_t CountKeyLessEqual(const Value& key) const {
    return CountKeyLessEqual(EncodeKey(key, pool_));
  }

  /// Validates structural invariants (test hook): sorted entries and one
  /// leaf-first key per leaf.
  Status CheckInvariants() const;

 private:
  /// Position of the first entry >= (key, rid).
  size_t LowerBound(uint64_t key, Rid rid) const;
  /// Position of the first entry whose key slot is >= `key`.
  size_t KeyLowerBound(uint64_t key) const;

  Iterator SeekEntry(uint64_t key, Rid rid, WorkCounter* wc) const;

  DataType key_type_;
  size_t leaf_size_;  ///< L: entries per leaf
  size_t height_ = 1;
  std::vector<EncodedEntry> entries_;  ///< sorted by (key, rid)
  std::vector<uint64_t> leaf_keys_;    ///< key of each leaf's first entry
  const StringPool* pool_ = nullptr;  ///< string trees: the keys' sealed pool
};

/// The point-probe index type; perfbench still names it `Index`.
using Index = BPlusTree;

}  // namespace ajr
