#include "runtime/shared_scan.h"

#include <algorithm>
#include <cassert>

namespace ajr {

SharedScanPass::SharedScanPass(std::unique_ptr<ScanCursor> cursor,
                               size_t grain_entries, bool record_positions)
    : cursor_(std::move(cursor)),
      grain_entries_(std::max<size_t>(1, grain_entries)),
      record_positions_(record_positions) {}

void SharedScanPass::ProduceLocked() {
  assert(!complete_);
  // Mirrors MorselDriver's private grain pull exactly — same cursor call
  // sequence, so a partial final grain carries its failed Next's charge and
  // the following empty pull becomes the tail, just like a private scan.
  const size_t begin = rids_.size();
  WorkCounter wc;
  Rid rid;
  while (rids_.size() - begin < grain_entries_ && cursor_->Next(&wc, &rid)) {
    rids_.push_back(rid);
    if (record_positions_) positions_.push_back(cursor_->CurrentPosition());
  }
  if (rids_.size() == begin) {
    complete_ = true;
    tail_work_ = wc.total();
    return;
  }
  grain_work_.push_back(wc.total());
  ScanPosition end = cursor_->CurrentPosition();
  end_shape_.order = end.order;
  end_shape_.key_type = end.key_type;
  if (end.order == ScanOrder::kKeyRidOrder) {
    if (end.key_type != DataType::kString) {
      grain_end_key_.push_back(end.key_enc);
    } else {
      if (end_key_strs_.empty() || end_key_strs_.back() != end.key_str) {
        end_key_strs_.push_back(std::move(end.key_str));
      }
      grain_end_key_.push_back(end_key_strs_.size() - 1);
    }
  }
}

ScanPosition SharedScanPass::GrainEndPositionLocked(size_t g) const {
  ScanPosition p = end_shape_;
  p.rid = rids_[GrainEnd(g) - 1];
  if (p.order == ScanOrder::kKeyRidOrder) {
    if (p.key_type != DataType::kString) {
      p.key_enc = grain_end_key_[g];
    } else {
      p.key_str = end_key_strs_[grain_end_key_[g]];
    }
  }
  return p;
}

SharedScanAttachment::~SharedScanAttachment() {
  if (pass_ == nullptr) return;
  std::lock_guard<std::mutex> lock(pass_->mu_);
  --pass_->live_attachments_;
}

bool SharedScanAttachment::Next(ParallelMorsel* morsel, WorkCounter* wc,
                                size_t max_grains) {
  morsel->rids.clear();
  morsel->positions.clear();
  if (covered_) return false;
  SharedScanPass& pass = *pass_;
  std::lock_guard<std::mutex> lock(pass.mu_);
  for (size_t taken = 0; taken < max_grains;) {
    if (wrapped_ && next_ == start_) {  // full circle: covered
      Cover(wc);
      break;
    }
    if (next_ < pass.grain_work_.size()) {
      const size_t begin = pass.GrainBegin(next_);
      const size_t end = pass.GrainEnd(next_);
      morsel->rids.insert(morsel->rids.end(), pass.rids_.begin() + begin,
                          pass.rids_.begin() + end);
      if (pass.record_positions_) {
        morsel->positions.insert(morsel->positions.end(),
                                 pass.positions_.begin() + begin,
                                 pass.positions_.begin() + end);
      }
      wc->Add(pass.grain_work_[next_]);
      last_grain_ = next_;
      ++next_;
      ++consumed_;
      ++taken;
      continue;
    }
    // At the frontier. A completed pass either wraps this attachment or
    // finishes it; an in-flight pass grows by one cooperative production.
    if (pass.complete_) {
      if (!wrapped_ && start_ > 0) {
        wrapped_ = true;
        next_ = 0;
        continue;
      }
      // Consumed [start, end) and — if wrapping — [0, start): covered.
      Cover(wc);
      break;
    }
    pass.ProduceLocked();
    if (!pass.complete_) ++produced_;
  }
  return !morsel->rids.empty();
}

std::optional<ScanPosition> SharedScanAttachment::last_position() const {
  if (last_grain_ == SIZE_MAX) return std::nullopt;
  std::lock_guard<std::mutex> lock(pass_->mu_);
  return pass_->GrainEndPositionLocked(last_grain_);
}

void SharedScanAttachment::Cover(WorkCounter* wc) {
  covered_ = true;
  // The tail (the scan's final empty grain pull) is charged once per
  // attachment, completing work parity with a private scan.
  wc->Add(pass_->tail_work_);
}

void SharedScanRegistry::AttachOrCreate(
    const std::string& sig,
    const std::function<std::unique_ptr<ScanCursor>()>& make_cursor,
    size_t grain_entries, bool record_positions, SharedScanAttachment* att) {
  std::lock_guard<std::mutex> lock(mu_);
  ++tick_;
  for (Entry& e : passes_) {
    if (e.sig != sig) continue;
    e.last_use = tick_;
    att->pass_ = e.pass;
    att->attached_existing_ = true;
    {
      std::lock_guard<std::mutex> pass_lock(e.pass->mu_);
      // An in-flight pass with live attachments is joined at its frontier
      // (circular attach: ride the producers' momentum). A completed pass
      // — or a stalled one, left incomplete by a finished query — is
      // replayed front to back: the joiner drives production itself, so
      // joining mid-pass would only scramble its scan order (and cost it
      // demotion safety) for nothing.
      att->start_ = e.pass->complete_ || e.pass->live_attachments_ == 0
                        ? 0
                        : e.pass->grain_work_.size();
      ++e.pass->live_attachments_;
    }
    att->next_ = att->start_;
    att->wrapped_ = false;
    att->covered_ = false;
    return;
  }
  // No matching pass: create one, evicting the stalest unpinned pass when
  // the table is full (passes with live attachments are pinned; completed
  // and stalled passes are fair game).
  auto evictable = [](const Entry& e) {
    std::lock_guard<std::mutex> pass_lock(e.pass->mu_);
    return e.pass->complete_ || e.pass->live_attachments_ == 0;
  };
  if (passes_.size() >= kMaxRetainedPasses) {
    size_t victim = SIZE_MAX;
    for (size_t i = 0; i < passes_.size(); ++i) {
      if (!evictable(passes_[i])) continue;
      if (victim == SIZE_MAX || passes_[i].last_use < passes_[victim].last_use) {
        victim = i;
      }
    }
    if (victim != SIZE_MAX) passes_.erase(passes_.begin() + victim);
  }
  Entry e;
  e.sig = sig;
  e.pass = std::make_shared<SharedScanPass>(make_cursor(), grain_entries,
                                            record_positions);
  e.pass->live_attachments_ = 1;
  e.last_use = tick_;
  att->pass_ = e.pass;
  att->attached_existing_ = false;
  att->start_ = 0;
  att->next_ = 0;
  att->wrapped_ = false;
  att->covered_ = false;
  passes_.push_back(std::move(e));
}

size_t SharedScanRegistry::num_passes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return passes_.size();
}

}  // namespace ajr
