#include "runtime/morsel.h"

#include <algorithm>
#include <cassert>

#include "common/string_util.h"

namespace ajr {

MorselDriver::MorselDriver(const PipelinePlan* plan, size_t grain_entries,
                           bool record_positions, SharedScanRegistry* registry)
    : plan_(plan),
      grain_(std::max<size_t>(1, grain_entries)),
      record_positions_(record_positions),
      registry_(registry),
      legs_(plan->query.tables.size()) {}

std::string MorselDriver::ScanSignature(size_t table) const {
  // A pass is shareable only between scans that produce the very same
  // grain stream: same storage objects (catalog-owned, so pointers are
  // process-wide identities), same key ranges, same grain size, and the
  // same position-recording mode.
  const DrivingAccess& access = plan_->access[table].driving;
  std::string sig =
      StrCat("t:", reinterpret_cast<uintptr_t>(&plan_->entries[table]->table()),
             " i:",
             reinterpret_cast<uintptr_t>(
                 access.index != nullptr ? access.index->tree.get() : nullptr),
             " g:", grain_, " p:", record_positions_ ? 1 : 0, " r:");
  for (const KeyRange& r : access.ranges) sig += r.ToString() + ";";
  return sig;
}

Status MorselDriver::Promote(size_t table) {
  LegScan& leg = legs_[table];
  if (!leg.promoted) {
    leg.scan = OpenDrivingScan(*plan_, table);
    if (registry_ != nullptr) {
      leg.shared = std::make_unique<SharedScanAttachment>();
      registry_->AttachOrCreate(
          ScanSignature(table), [&leg] { return std::move(leg.scan.cursor); },
          grain_, record_positions_, leg.shared.get());
    }
    leg.promoted = true;
  }
  // A re-promotion resumes the original cursor (or shared attachment),
  // which already sits past every previously dispensed entry (Sec 4.2's
  // kept cursor).
  current_ = table;
  dispensed_this_promotion_ = 0;
  return Status::OK();
}

bool MorselDriver::Fill(ParallelMorsel* morsel, size_t max_entries) {
  assert(current_ != SIZE_MAX && "Fill before first Promote");
  LegScan& leg = legs_[current_];
  const size_t max_grains = std::max<size_t>(1, max_entries / grain_);
  if (leg.shared != nullptr) {
    if (!leg.shared->Next(morsel, &wc_, max_grains)) return false;
  } else {
    // Whole grain pulls, exactly as a shared pass produces them; the scan
    // ends at the first empty pull (its charge is the scan's tail).
    morsel->rids.clear();
    morsel->positions.clear();
    for (size_t g = 0; g < max_grains && !leg.exhausted; ++g) {
      const size_t begin = morsel->rids.size();
      Rid rid;
      while (morsel->rids.size() - begin < grain_ &&
             leg.scan.cursor->Next(&wc_, &rid)) {
        morsel->rids.push_back(rid);
        if (record_positions_) {
          morsel->positions.push_back(leg.scan.cursor->CurrentPosition());
        }
      }
      if (morsel->rids.size() == begin) {
        leg.exhausted = true;
      } else {
        ++private_grains_;
      }
    }
    if (morsel->rids.empty()) return false;
  }
  leg.dispensed += static_cast<double>(morsel->rids.size());
  dispensed_this_promotion_ += morsel->rids.size();
  return true;
}

bool MorselDriver::demotion_safe() const {
  if (current_ == SIZE_MAX) return true;
  const LegScan& leg = legs_[current_];
  // A mid-pass attachment consumes in wrapped order: its processed set is
  // not a prefix of the scan order, so no positional predicate can describe
  // it — the coordinator must keep the driving leg.
  return leg.shared == nullptr || !leg.shared->started_mid_pass();
}

std::optional<ScanPosition> MorselDriver::high_water() const {
  if (current_ == SIZE_MAX || dispensed_this_promotion_ == 0) {
    return std::nullopt;
  }
  const LegScan& leg = legs_[current_];
  if (leg.shared != nullptr) return leg.shared->last_position();
  return leg.scan.cursor->CurrentPosition();
}

double MorselDriver::total_entries(size_t table) const {
  return legs_[table].scan.total_entries;
}

double MorselDriver::dispensed_entries(size_t table) const {
  return legs_[table].dispensed;
}

bool MorselDriver::ever_promoted(size_t table) const {
  return legs_[table].promoted;
}

size_t MorselDriver::prefix_col(size_t table) const {
  return legs_[table].scan.prefix_col;
}

uint64_t MorselDriver::shared_scan_attaches() const {
  uint64_t n = 0;
  for (const LegScan& leg : legs_) {
    if (leg.shared != nullptr && leg.shared->attached_existing()) ++n;
  }
  return n;
}

uint64_t MorselDriver::shared_scan_passes_saved() const {
  uint64_t n = 0;
  for (const LegScan& leg : legs_) {
    if (leg.shared != nullptr && leg.shared->attached_existing() &&
        leg.shared->covered() && leg.shared->produced() == 0) {
      ++n;
    }
  }
  return n;
}

uint64_t MorselDriver::scan_morsels_produced() const {
  uint64_t n = private_grains_;
  for (const LegScan& leg : legs_) {
    if (leg.shared != nullptr) n += leg.shared->produced();
  }
  return n;
}

uint64_t MorselDriver::scan_morsels_consumed() const {
  uint64_t n = private_grains_;
  for (const LegScan& leg : legs_) {
    if (leg.shared != nullptr) n += leg.shared->consumed();
  }
  return n;
}

}  // namespace ajr
