// MorselDriver: the shared driving-scan dispenser of morsel-parallel
// execution (runtime side of exec/adaptive_coordinator.h's DrivingSource).
//
// It owns one resumable driving scan per query table, opened lazily at
// first promotion by OpenDrivingScan — the serial executor's scan opener,
// so morsel order, scan totals, positional predicates, and re-promotion
// semantics are identical. Each morsel it fills feeds a worker's get-next
// loop (PipelineExecutor::ExecuteWorker) one driving entry at a time.
// Fill() batches the promoted cursor's RIDs into morsels of the size the
// coordinator's ramp asks for, pulled as whole grains of `grain_entries`
// (the ramp base c) entries; the scan ends at the first empty grain pull.
// The cursor's position after the last dispensed entry is the fleet-wide
// high-water mark a demotion's positional predicate is built from.
//
// Cross-query sharing: with a SharedScanRegistry installed, a promoted
// leg attaches to the registry's pass for its scan signature instead of
// opening a private cursor — grains are produced once per pass and
// replayed (RIDs, positions, and per-grain work units) to every attached
// query. Private and shared legs pull the same grains, so both dispense
// identical morsel boundaries and per-morsel work units. A leg that
// attached mid-pass consumes in wrapped order, so the
// driver reports demotion_safe() = false while it is promoted and the
// coordinator keeps the driving leg (a positional predicate needs a scan
// prefix).
//
// Thread safety: none of its own — every method is called under the
// AdaptiveCoordinator's mutex (the DrivingSource contract).

#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "common/work_counter.h"
#include "exec/adaptive_coordinator.h"
#include "optimize/planner.h"
#include "runtime/shared_scan.h"

namespace ajr {

class MorselDriver final : public DrivingSource {
 public:
  /// `plan` must outlive the driver. `grain_entries` is the ramp base c:
  /// Fill() pulls and dispenses whole grains of it. `record_positions` makes
  /// Fill() record each entry's scan position alongside its RID (observer-
  /// instrumented runs only — it materializes one ScanPosition per entry).
  /// `registry` (may be null) enables cross-query scan sharing.
  MorselDriver(const PipelinePlan* plan, size_t grain_entries,
               bool record_positions, SharedScanRegistry* registry = nullptr);

  Status Promote(size_t table) override;
  bool Fill(ParallelMorsel* morsel, size_t max_entries) override;
  bool demotion_safe() const override;
  std::optional<ScanPosition> high_water() const override;
  double total_entries(size_t table) const override;
  double dispensed_entries(size_t table) const override;
  bool ever_promoted(size_t table) const override;
  size_t prefix_col(size_t table) const override;
  uint64_t scan_work_units() const override { return wc_.total(); }

  // Sharing observability (read by the orchestrator after the run; all
  // zero without a registry).
  /// Legs that attached to an existing registry pass.
  uint64_t shared_scan_attaches() const;
  /// Attachments that covered a whole pass without producing any morsel
  /// themselves — full physical passes this query never paid for.
  uint64_t shared_scan_passes_saved() const;
  /// Grains physically produced by this driver (private pulls plus shared
  /// co-productions) / dispensed to this query's workers.
  uint64_t scan_morsels_produced() const;
  uint64_t scan_morsels_consumed() const;

 private:
  struct LegScan {
    /// The opened scan; shared mode hands its cursor to the registry.
    DrivingScan scan;
    std::unique_ptr<SharedScanAttachment> shared;    ///< shared mode
    double dispensed = 0;      ///< entries ever handed out, all promotions
    bool promoted = false;
    bool exhausted = false;    ///< private mode: a grain pull came back empty
  };

  /// The scan signature a shared pass is registered under.
  std::string ScanSignature(size_t table) const;

  const PipelinePlan* plan_;
  size_t grain_;
  bool record_positions_;
  SharedScanRegistry* registry_;
  std::vector<LegScan> legs_;
  size_t current_ = SIZE_MAX;
  /// Entries dispensed since the current promotion (high-water validity).
  uint64_t dispensed_this_promotion_ = 0;
  WorkCounter wc_;

  uint64_t private_grains_ = 0;  ///< grains pulled by private cursors
};

}  // namespace ajr
