#include "runtime/morsel.h"

#include <cassert>

namespace ajr {

MorselDriver::MorselDriver(const PipelinePlan* plan, bool record_positions)
    : plan_(plan),
      record_positions_(record_positions),
      legs_(plan->query.tables.size()) {}

Status MorselDriver::Promote(size_t table) {
  LegScan& leg = legs_[table];
  if (!leg.promoted) {
    leg.scan = OpenDrivingScan(*plan_, table);
    leg.promoted = true;
  }
  // A re-promotion resumes the original cursor, which already sits past
  // every previously dispensed entry (Sec 4.2's kept cursor).
  current_ = table;
  dispensed_this_promotion_ = 0;
  return Status::OK();
}

bool MorselDriver::Fill(ParallelMorsel* morsel, size_t max_entries) {
  assert(current_ != SIZE_MAX && "Fill before first Promote");
  LegScan& leg = legs_[current_];
  morsel->rids.clear();
  morsel->positions.clear();
  // The cursor is pulled past its last entry once, as the serial loop
  // pulls it (that pull's charge is the scan's tail).
  Rid rid;
  while (!leg.exhausted && morsel->rids.size() < max_entries) {
    if (!leg.scan.cursor->Next(&wc_, &rid)) {
      leg.exhausted = true;
      break;
    }
    morsel->rids.push_back(rid);
    if (record_positions_) {
      morsel->positions.push_back(leg.scan.cursor->CurrentPosition());
    }
  }
  if (morsel->rids.empty()) return false;
  leg.dispensed += static_cast<double>(morsel->rids.size());
  dispensed_this_promotion_ += morsel->rids.size();
  return true;
}

std::optional<ScanPosition> MorselDriver::high_water() const {
  if (current_ == SIZE_MAX || dispensed_this_promotion_ == 0) {
    return std::nullopt;
  }
  return legs_[current_].scan.cursor->CurrentPosition();
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

}  // namespace ajr
