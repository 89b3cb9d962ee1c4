// SharedScanRegistry: cross-query sharing of driving-scan passes.
//
// N concurrent queries over the same table pay N physical scans in the
// isolated runtime. This registry lets a MorselDriver leg whose scan
// signature (table, index, key ranges, grain size, position recording)
// matches an in-flight pass *attach* to it instead of opening a private
// cursor: the pass is produced physically once and replayed to every
// attachment, each of which charges the recorded per-grain work units to
// its own query — so every query accounts for exactly the work a private
// scan would have charged, bit for bit (the oracle's --share axis compares
// the two paths).
//
// Grains: a pass is produced in fixed grains of c (the ramp base) entries,
// the same grain pulls a private MorselDriver makes, and a morsel is a
// whole number of grains. Queries whose morsel ramps are at different
// sizes therefore share one pass, and share-off and share-scan runs see
// identical morsel boundaries and per-morsel work. The pass stores its
// entries in one flat RID array (plus positions when recorded), with the
// per-grain work units and end keys beside it; grain g spans entries
// [g*c, (g+1)*c), as only the scan's last grain can be short.
//
// Circular attach (the classic shared-scan protocol): a late joiner starts
// at the pass's current frontier, consumes forward to the end of the scan,
// then wraps to grain 0 and consumes up to its start point before
// detaching — one full cover of the scan, most of it riding grains that
// were (or will be) produced anyway. Production is cooperative: whichever
// attachment reaches the frontier first produces the next grain under the
// pass lock. Completed passes are retained (small LRU) so closed-loop
// traffic re-running the same query attaches warm and performs no physical
// scan at all.
//
// Per-attachment bookkeeping keeps adaptation exact: an attachment knows
// the scan position after its last consumed grain (the per-query
// high-water mark a demotion's positional predicate is built from) and
// whether it started mid-pass — a wrapped attachment's processed set is
// not a prefix of the scan order, so its driver reports demotion_safe() =
// false and the coordinator keeps the driving leg (see
// DrivingSource::demotion_safe).
//
// Thread safety: the registry map is behind its own mutex; each pass is
// behind its own mutex (a leaf lock — pass code calls only the cursor).
// Attachments are single-owner (one MorselDriver leg each) and call into
// the pass under its lock.

#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "common/work_counter.h"
#include "exec/adaptive_coordinator.h"
#include "storage/cursors.h"
#include "storage/scan_position.h"

namespace ajr {

class SharedScanPass;

/// One query's view of a shared pass: a cursor over the pass's grains
/// following the circular-attach protocol. Single-owner (one MorselDriver
/// leg); Next() may be called again after it returned false only following
/// external re-promotion logic (it keeps returning false once covered).
class SharedScanAttachment {
 public:
  SharedScanAttachment() = default;
  /// Detaching drops the pass's live-attachment count; a pass with no live
  /// attachments is "stalled" (nobody will drive it forward) and is joined
  /// at grain 0, not at its frontier, by the next attachment.
  ~SharedScanAttachment();
  SharedScanAttachment(const SharedScanAttachment&) = delete;
  SharedScanAttachment& operator=(const SharedScanAttachment&) = delete;

  /// Overwrites `morsel` with the attachment's next `max_grains` uncovered
  /// grains (rids and, when the pass records them, positions), charges
  /// their recorded production work to `wc`, and returns true. Returns
  /// false once the attachment has covered the whole pass. The scan's tail
  /// work (the final empty grain pull) is charged exactly once, with the
  /// call that reaches it, so the attachment's total equals a private
  /// scan's.
  bool Next(ParallelMorsel* morsel, WorkCounter* wc, size_t max_grains = 1);

  /// True when this attachment joined mid-pass (its consumption order wraps,
  /// so its processed set is not a scan prefix — demotion-unsafe).
  bool started_mid_pass() const { return start_ > 0; }

  /// True when this attachment joined an existing pass rather than creating
  /// one.
  bool attached_existing() const { return attached_existing_; }

  /// Position after the last consumed grain (per-attachment high water);
  /// nullopt before the first consumed grain. Takes the pass lock.
  std::optional<ScanPosition> last_position() const;

  bool covered() const { return covered_; }
  /// Grains this attachment physically produced / consumed.
  uint64_t produced() const { return produced_; }
  uint64_t consumed() const { return consumed_; }

 private:
  friend class SharedScanRegistry;

  /// Marks the pass covered and charges its tail work. Pre: pass lock held.
  void Cover(WorkCounter* wc);

  std::shared_ptr<SharedScanPass> pass_;
  size_t start_ = 0;  ///< frontier grain at attach; wrap target
  size_t next_ = 0;   ///< next pass grain to consume
  bool wrapped_ = false;
  bool covered_ = false;
  bool attached_existing_ = false;
  uint64_t produced_ = 0;
  uint64_t consumed_ = 0;
  size_t last_grain_ = SIZE_MAX;  ///< last consumed grain (high water)
};

/// Process-wide pass table. One instance per QueryEngine (or per test).
class SharedScanRegistry {
 public:
  /// Passes retained after completion for warm reuse (total map cap; the
  /// oldest completed pass is evicted first, in-flight passes never are).
  static constexpr size_t kMaxRetainedPasses = 8;

  /// Attaches `att` to the pass registered under `sig`, creating the pass
  /// with a cursor from `make_cursor` when none exists. An in-flight pass
  /// with live attachments is joined at its current frontier (circular
  /// attach); a retained completed pass — or a stalled incomplete one,
  /// whose producer finished without draining the scan — is replayed from
  /// grain 0, in scan order (the joiner drives any remaining production
  /// itself, so there is nothing to gain from starting mid-pass).
  void AttachOrCreate(
      const std::string& sig,
      const std::function<std::unique_ptr<ScanCursor>()>& make_cursor,
      size_t grain_entries, bool record_positions, SharedScanAttachment* att);

  /// Registered passes (diagnostics).
  size_t num_passes() const;

 private:
  struct Entry {
    std::string sig;
    std::shared_ptr<SharedScanPass> pass;
    uint64_t last_use = 0;
  };

  mutable std::mutex mu_;
  std::vector<Entry> passes_;
  uint64_t tick_ = 0;
};

/// One shared scan pass: the physical cursor plus every grain it has
/// produced, each with its recorded production work and end position.
/// Grains are pulled exactly as a private MorselDriver pulls them (same
/// cursor call sequence), so replayed work is bit-identical to an unshared
/// scan. Internal to the registry/attachment protocol.
class SharedScanPass {
 public:
  SharedScanPass(std::unique_ptr<ScanCursor> cursor, size_t grain_entries,
                 bool record_positions);

 private:
  friend class SharedScanAttachment;
  friend class SharedScanRegistry;

  /// Pulls the next grain from the cursor (up to grain_entries_ entries);
  /// sets complete_ and tail_work_ when the pull comes back empty.
  /// Pre: pass lock held, !complete_.
  void ProduceLocked();

  /// Entry range of grain `g` in rids_. Pre: pass lock held.
  size_t GrainBegin(size_t g) const { return g * grain_entries_; }
  size_t GrainEnd(size_t g) const {
    return std::min(rids_.size(), (g + 1) * grain_entries_);
  }
  /// Cursor position after grain `g`'s last entry. Pre: pass lock held.
  ScanPosition GrainEndPositionLocked(size_t g) const;

  mutable std::mutex mu_;
  std::unique_ptr<ScanCursor> cursor_;
  size_t grain_entries_;
  bool record_positions_;
  // Produced entries (immutable once appended): one flat RID array, the
  // parallel positions when recording, and per grain the work units its
  // cursor pull charged and the key of the cursor position after its last
  // entry. Every position of a pass shares its order and key type
  // (end_shape_), and its RID is the grain's last RID, so the key is all
  // a grain needs to store: the encoded key, or for string keys an index
  // into end_key_strs_ (consecutive grains mostly end on the same string,
  // which is stored once).
  std::vector<Rid> rids_;
  std::vector<ScanPosition> positions_;
  std::vector<uint64_t> grain_work_;
  ScanPosition end_shape_;
  std::vector<uint64_t> grain_end_key_;
  std::vector<std::string> end_key_strs_;
  bool complete_ = false;
  uint64_t tail_work_ = 0;  ///< work of the final empty grain pull
  size_t live_attachments_ = 0;
};

}  // namespace ajr
