// BPlusTree: an in-memory B+-tree secondary index over (key, RID) pairs.
//
// Entries are ordered lexicographically by (key, RID), so duplicate keys are
// supported and every scan — full, range, or point probe — yields RIDs in
// the deterministic (key, RID) order the paper's positional predicates rely
// on ("age > 35 OR (age = 35 AND RID > cur_RID)").
//
// Key representation: every stored key is one uint64 slot. Numeric keys use
// the order-preserving encodings from types/row_layout.h, so comparisons on
// the probe path are single integer compares — no Value is constructed.
// String keys store a StringPool id (ids are unordered) and compare through
// the pool; catalog indexes share the indexed table's pool, standalone trees
// own a private one. Probes come in as IndexKey (see key_codec.h), which
// carries string bytes so cross-pool probes and un-interned literals work.
//
// The tree charges work units (node visits, entry scans) to an optional
// WorkCounter so probe costs can be measured deterministically.
//
// Thread safety: every traversal entry point (SeekFirst/Seek/SeekAfter, the
// Count* statistics, CheckInvariants) is const and mutates nothing inside
// the tree; concurrent readers over a loaded tree are race-free, and each
// Iterator is private to its caller (it holds the position, the tree holds
// none). Insert/BulkLoad restructure nodes in place and require exclusive
// access — build indexes before sharing the tree with the query runtime.
// Per-query WorkCounters must not be shared across threads.

#pragma once

#include <cstdint>
#include <memory>
#include <string>
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

/// B+-tree index with leaf chaining. Keys are uint64 slots of one DataType.
class BPlusTree {
 public:
  /// One entry in stored form: encoded key slot + RID.
  struct EncodedEntry {
    uint64_t key;
    Rid rid;
  };

  /// Creates an empty tree. `fanout` is the max entries per leaf and max
  /// children per internal node (minimum 4). String trees resolve ids
  /// through `pool` when given (catalog indexes share the table pool) and
  /// own a private pool otherwise (standalone trees interning on Insert).
  explicit BPlusTree(DataType key_type, size_t fanout = 64,
                     const StringPool* pool = nullptr);
  ~BPlusTree();

  BPlusTree(const BPlusTree&) = delete;
  BPlusTree& operator=(const BPlusTree&) = delete;
  BPlusTree(BPlusTree&&) noexcept;
  BPlusTree& operator=(BPlusTree&&) noexcept;

  DataType key_type() const { return key_type_; }
  size_t size() const { return size_; }
  /// Tree height in levels (1 = just a leaf).
  size_t height() const { return height_; }

  /// Point probe: appends all RIDs whose key equals `key` to `out` in
  /// ascending RID order and charges one root-to-leaf descent plus one
  /// entry scan per match to `wc` (null = no charging). String keys borrow
  /// the caller's bytes for the duration of the call.
  void Probe(const IndexKey& key, WorkCounter* wc, std::vector<Rid>* out) const;

  /// The pool string key slots resolve through (null for non-string trees).
  /// Shared-pool trees point at the table pool; standalone string trees
  /// return their private pool.
  const StringPool* pool() const { return pool_; }

  /// Inserts one entry. Duplicate keys allowed; duplicate (key, rid) pairs
  /// are legal but the workload never produces them. String keys intern
  /// into the private pool; on shared-pool trees they must already be
  /// interned (catalog trees are bulk-loaded from table cells).
  void Insert(const Value& key, Rid rid);

  /// Replaces the tree contents from entries sorted by (key, rid).
  /// InvalidArgument if the entries are not sorted.
  Status BulkLoad(std::vector<IndexEntry> sorted_entries);

  /// BulkLoad in stored form: `sorted_entries` must already be encoded for
  /// this tree (order encoding / shared-pool ids) and sorted by the tree's
  /// (key, rid) order. The catalog's index build uses this to go straight
  /// from page cells to the tree with no Value materialization.
  Status BulkLoadEncoded(std::vector<EncodedEntry> sorted_entries);

  /// Three-way compare of a probe key against a stored key slot.
  int CompareProbe(const IndexKey& key, uint64_t stored) const {
    if (key_type_ != DataType::kString) {
      return key.enc < stored ? -1 : (key.enc > stored ? 1 : 0);
    }
    int c = key.str.compare(pool_->Get(static_cast<uint32_t>(stored)));
    return c < 0 ? -1 : (c > 0 ? 1 : 0);
  }

  /// True if a probe key equals a stored key slot.
  bool ProbeEquals(const IndexKey& key, uint64_t stored) const {
    if (key_type_ != DataType::kString) return key.enc == stored;
    return key.str == pool_->Get(static_cast<uint32_t>(stored));
  }

  /// Materializes a stored key slot as an owned Value.
  Value DecodeKey(uint64_t stored) const;

  /// Forward iterator over leaf entries. Obtained from the Seek* methods;
  /// walking past the last entry makes it invalid.
  class Iterator {
   public:
    Iterator() = default;

    bool Valid() const { return leaf_ != nullptr; }
    /// Stored key slot (compare via the owning tree's CompareProbe).
    uint64_t key_slot() const;
    /// Materialized key (tests / diagnostics; allocates for strings).
    Value key() const;
    Rid rid() const;

    /// Advances one entry, charging kIndexEntryScan (plus kIndexNodeVisit
    /// when hopping to the next leaf).
    void Next(WorkCounter* wc);

   private:
    friend class BPlusTree;
    const BPlusTree* tree_ = nullptr;
    void* leaf_ = nullptr;  // LeafNode*
    size_t slot_ = 0;
  };

  /// First entry of the whole tree.
  Iterator SeekFirst(WorkCounter* wc) const;

  /// First entry with key >= `key` (inclusive) or key > `key` (exclusive).
  Iterator Seek(const IndexKey& key, bool inclusive, WorkCounter* wc) const;
  Iterator Seek(const Value& key, bool inclusive, WorkCounter* wc) const;

  /// First entry strictly after (key, rid) — used to resume a saved cursor.
  Iterator SeekAfter(const IndexKey& key, Rid rid, WorkCounter* wc) const;
  Iterator SeekAfter(const Value& key, Rid rid, WorkCounter* wc) const;

  /// Number of entries with key strictly less than `key`. O(height) via
  /// per-child subtree counts (the "key range cardinality" statistic
  /// commercial indexes expose; used to size driving scans).
  size_t CountKeyLess(const IndexKey& key) const;
  size_t CountKeyLess(const Value& key) const { return CountKeyLess(EncodeKey(key)); }

  /// Number of entries with key <= `key`.
  size_t CountKeyLessEqual(const IndexKey& key) const;
  size_t CountKeyLessEqual(const Value& key) const {
    return CountKeyLessEqual(EncodeKey(key));
  }

  /// Validates structural invariants (test hook): sorted leaves, consistent
  /// separators, uniform depth, complete leaf chain, subtree counts.
  Status CheckInvariants() const;

 private:
  struct Node;
  struct LeafNode;
  struct InternalNode;

  /// Three-way compare of two stored entries.
  int CompareEntries(const EncodedEntry& a, const EncodedEntry& b) const;
  /// Three-way compare of a stored entry against a probe (key, rid) target.
  int CompareToProbe(const EncodedEntry& e, const IndexKey& key, Rid rid) const;
  size_t ChildIndexFor(const std::vector<EncodedEntry>& separators,
                       const IndexKey& key, Rid rid) const;

  /// Encodes a probe key for storage (Insert path; interns into the private
  /// pool when owned).
  uint64_t EncodeForStore(const Value& key);

  Iterator SeekEntry(const IndexKey& key, Rid rid, WorkCounter* wc) const;
  size_t CountBefore(const IndexKey& key, Rid rid) const;

  DataType key_type_;
  size_t fanout_;
  size_t size_ = 0;
  size_t height_ = 1;
  std::unique_ptr<Node> root_;
  const StringPool* pool_ = nullptr;        ///< id resolver (string trees)
  std::unique_ptr<StringPool> owned_pool_;  ///< backing for standalone trees
};

/// The point-probe index type; perfbench still names it `Index`.
using Index = BPlusTree;

}  // namespace ajr
