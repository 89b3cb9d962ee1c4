// SharedProbeCache: a lock-striped, cross-query probe-result cache.
//
// Hot keys probed by every worker of a parallel query — and by every query
// of a concurrent burst over the same tables — would otherwise be resolved
// physically once per probe. This cache pools probe outcomes process-wide:
// entries are keyed by a 64-bit leg signature (probe index identity, local
// predicate fingerprint, and the leg's demotion epoch — see LegSignature)
// plus the probe key, so a replayed triple is exactly what a fresh probe
// of that leg would compute. Tables and indexes are immutable while queries
// run, so a probe's outcome is a pure function of (leg, key); replaying it
// keeps work-unit accounting bit-identical to the unshared path, which the
// differential oracle's --share axis enforces. PipelineExecutor::ProbeLeg
// is the only client.
//
// Layout: K independent stripes, each a small open-addressed LRU map (flat
// slots, an intrusive recency list with slot numbers as links,
// backward-shift deletion, and in-place victim recycling, so steady-state
// operation allocates nothing). A key's stripe is
// derived from its hash, so dop workers and concurrent queries probing
// different keys take different stripe locks and never serialize; hammering
// one hot key contends on exactly one stripe. Lock acquisition is
// try_lock-first so callers can count real contention (the
// exec.probe_cache_shared_stripe_conflicts counter).
//
// Epochs: a demotion changes a leg's probe results, so the executor folds
// its demotion epoch into the leg signature. Bumping the epoch retires only
// that leg's entries (they become unreachable and age out of their stripes'
// LRU lists); hot entries of every other leg — even ones hashing into the
// same stripe — stay live.
//
// Thread safety: fully thread-safe; every public method locks only the one
// stripe the key maps to. Results are copied out under the stripe lock —
// no pointers into the cache escape.

#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "storage/heap_table.h"
#include "storage/key_codec.h"

namespace ajr {

class SharedProbeCache {
 public:
  /// One probe's replayable outcome: everything the executor needs to
  /// account for the probe as if it had run — matched RIDs (post local
  /// predicate), rows fetched from the heap, and total work units charged.
  struct Result {
    std::vector<Rid> matches;
    uint64_t fetched = 0;
    uint64_t work_units = 0;
  };

  /// Cap on cached matches per entry: one mega-key must not pin unbounded
  /// memory (see Insert).
  static constexpr size_t kMaxMatchesPerEntry = 4096;

  /// `entries_per_stripe` slots in each of `stripes` stripes (stripes is
  /// rounded up to a power of two). `entries_per_stripe` == 0 disables the
  /// cache (every Lookup misses, every Insert is a no-op).
  explicit SharedProbeCache(size_t entries_per_stripe = 256,
                            size_t stripes = 16);

  /// Identity of one probe leg's result space: the probe index object (the
  /// catalog owns one B+-tree per indexed column, so the pointer is a
  /// process-wide identity), the leg's local-predicate fingerprint
  /// (two queries filtering the same table differently must never share
  /// outcomes), and the leg's demotion epoch (see file comment).
  static uint64_t LegSignature(const void* probe_index,
                               std::string_view predicate_fingerprint,
                               uint32_t epoch);

  /// Copies the entry for (sig, key) into `*out` and returns true, or
  /// returns false on a miss. A hit refreshes stripe LRU recency.
  /// `*conflict` is set to true when the stripe lock was contended (and is
  /// left untouched otherwise).
  bool Lookup(uint64_t sig, const IndexKey& key, Result* out, bool* conflict);

  /// Memoizes a probe outcome for (sig, key), evicting the stripe's least
  /// recently used entry when full. Oversized match lists (more than
  /// kMaxMatchesPerEntry) are not cached. `*conflict` as above.
  void Insert(uint64_t sig, const IndexKey& key,
              const std::vector<Rid>& matches, uint64_t fetched,
              uint64_t work_units, bool* conflict);

  /// Total live entries across stripes (diagnostics; takes every lock).
  size_t size() const;
  size_t stripes() const { return stripes_.size(); }
  size_t stripe_capacity() const { return stripe_capacity_; }

 private:
  static constexpr uint32_t kNil = UINT32_MAX;

  /// One cache entry. String keys own their bytes (the IndexKey borrows
  /// them from a table pool whose lifetime is the query's, not the
  /// engine's).
  struct Slot {
    uint64_t hash = 0;  ///< full (sig, key) hash; avoids rehash on evict
    uint64_t sig = 0;
    uint64_t enc = 0;
    std::string str;
    bool is_string = false;
    Result result;
    uint32_t lru_prev = kNil;
    uint32_t lru_next = kNil;
  };

  /// One independent open-addressed LRU map with (sig, key) identity and a
  /// mutex.
  struct Stripe {
    std::mutex mu;
    size_t mask = 0;
    size_t used = 0;
    std::vector<Slot> slots;
    std::vector<uint32_t> index;
    uint32_t lru_head = kNil;
    uint32_t lru_tail = kNil;
  };

  static uint64_t HashKey(uint64_t sig, const IndexKey& key);
  static bool SlotMatches(const Slot& s, uint64_t hash, uint64_t sig,
                          const IndexKey& key);
  Stripe& StripeFor(uint64_t hash) {
    // High bits pick the stripe; low bits index within it, so the two
    // selections stay independent.
    return *stripes_[(hash >> 48) & stripe_mask_];
  }
  static void Unlink(Stripe& st, uint32_t s);
  static void PushFront(Stripe& st, uint32_t s);
  static void EraseIndexAt(Stripe& st, size_t pos);
  /// Locks `st.mu`, setting `*conflict` when the uncontended path failed.
  static std::unique_lock<std::mutex> LockStripe(Stripe& st, bool* conflict);

  size_t stripe_capacity_;
  size_t stripe_mask_ = 0;
  std::vector<std::unique_ptr<Stripe>> stripes_;
};

}  // namespace ajr
