// MorselDriver: the driving-scan dispenser of morsel-parallel execution
// (runtime side of exec/adaptive_coordinator.h's DrivingSource).
//
// It owns one resumable driving scan per query table, opened lazily at
// first promotion by OpenDrivingScan — the serial executor's scan opener,
// so morsel order, scan totals, positional predicates, and re-promotion
// semantics are identical. Each morsel it fills feeds a worker's get-next
// loop (PipelineExecutor::ExecuteWorker) one driving entry at a time.
// Fill() pulls up to the coordinator's ramp size of the promoted cursor's
// RIDs; the scan ends at the first pull past its last entry. The cursor's
// position after the last dispensed entry is the fleet-wide high-water
// mark a demotion's positional predicate is built from.
//
// Thread safety: none of its own — every method is called under the
// AdaptiveCoordinator's mutex (the DrivingSource contract).

#pragma once

#include <optional>
#include <vector>

#include "common/work_counter.h"
#include "exec/adaptive_coordinator.h"
#include "optimize/planner.h"

namespace ajr {

class MorselDriver final : public DrivingSource {
 public:
  /// `plan` must outlive the driver. `record_positions` makes Fill() record
  /// each entry's scan position alongside its RID (observer-instrumented
  /// runs only — it materializes one ScanPosition per entry).
  MorselDriver(const PipelinePlan* plan, bool record_positions);

  Status Promote(size_t table) override;
  bool Fill(ParallelMorsel* morsel, size_t max_entries) override;
  std::optional<ScanPosition> high_water() const override;
  double total_entries(size_t table) const override;
  double dispensed_entries(size_t table) const override;
  bool ever_promoted(size_t table) const override;
  size_t prefix_col(size_t table) const override;
  uint64_t scan_work_units() const override { return wc_.total(); }

 private:
  struct LegScan {
    DrivingScan scan;
    double dispensed = 0;      ///< entries ever handed out, all promotions
    bool promoted = false;
    bool exhausted = false;    ///< the cursor has run past its last entry
  };

  const PipelinePlan* plan_;
  bool record_positions_;
  std::vector<LegScan> legs_;
  size_t current_ = SIZE_MAX;
  /// Entries dispensed since the current promotion (high-water validity).
  uint64_t dispensed_this_promotion_ = 0;
  WorkCounter wc_;
};

}  // namespace ajr
