// ExecStats: the counters one query execution reports. Plain data, so the
// executors, the coordinator and the DecisionHost all fill it.

#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace ajr {

/// Counters reported by one execution.
struct ExecStats {
  uint64_t rows_out = 0;
  uint64_t work_units = 0;
  uint64_t driving_rows_produced = 0;
  uint64_t inner_checks = 0;
  uint64_t inner_reorders = 0;
  uint64_t driving_checks = 0;
  uint64_t driving_switches = 0;
  /// Always 0 (there is no probe batching or per-leg memo); perfbench reads
  /// these five.
  uint64_t probe_cache_hits = 0;
  uint64_t probe_cache_misses = 0;
  uint64_t probe_batches = 0;
  uint64_t probe_batch_keys = 0;
  uint64_t probe_descents_saved = 0;
  /// Morsel-parallel observability (all zero in serial runs): workers that
  /// processed at least one morsel, morsels processed, and monitor folds
  /// into the shared AdaptiveCoordinator (one per morsel).
  uint64_t parallel_workers = 0;
  uint64_t morsels = 0;
  uint64_t monitor_folds = 0;
  /// AdaptationPolicy Decide() calls, counted by the run's DecisionHost
  /// (the serial executor's or the coordinator's); workers report 0.
  uint64_t policy_decisions = 0;
  /// Total join-order changes (inner reorders + driving switches) — the
  /// quantity Fig 10 plots against the history window size.
  uint64_t order_switches() const { return inner_reorders + driving_switches; }
  std::vector<size_t> initial_order;
  std::vector<size_t> final_order;
  double wall_seconds = 0;
  /// Adaptation event log: one line per reorder or switch, in the
  /// DecisionHost's format for its kind, serial and parallel alike.
  std::vector<std::string> events;

  /// Accumulates a parallel worker's additive counters. Orders, events,
  /// check/reorder counts and wall time come from the coordinator and its
  /// DecisionHost, and are NOT merged here.
  void MergeFrom(const ExecStats& worker) {
    rows_out += worker.rows_out;
    work_units += worker.work_units;
    driving_rows_produced += worker.driving_rows_produced;
    morsels += worker.morsels;
    monitor_folds += worker.monitor_folds;
  }
};

}  // namespace ajr
