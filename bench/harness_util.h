// Shared plumbing for the figure/table reproduction harnesses.
//
// Every harness binary regenerates one table or figure of the paper's
// evaluation (Sec 5) and prints the same rows/series the paper reports.
// Common flags:
//   --owners=N        DMV scale (default 100000, the paper's Table 1 scale)
//   --per-template=N  query instances per template (default 60 -> ~300)
//   --reps=N          timed repetitions per query (median reported)
//   --seed=N          workload seed
//   --json[=PATH]     also write machine-readable results (BENCH_<name>.json)

#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "adaptive/controller.h"
#include "catalog/catalog.h"
#include "exec/pipeline_executor.h"
#include "optimize/planner.h"
#include "workload/dmv.h"
#include "workload/templates.h"

namespace ajr {
namespace bench {

/// Parsed common command-line flags.
struct HarnessFlags {
  size_t owners = 100000;
  size_t per_template = 60;
  size_t reps = 3;
  uint64_t seed = 20070415;
  /// The paper's Sec 5 baseline optimizer knows table sizes only
  /// (--stats=minimal); --stats=base / --stats=rich select the NDV/min-max
  /// and Sec 5.3 tiers.
  StatsTier stats_tier = StatsTier::kMinimal;
  /// --json enables the JSON results file; --json=PATH overrides its path
  /// (default: BENCH_<harness>.json in the working directory).
  bool json = false;
  std::string json_path;
  /// --dop=N: intra-query degree of parallelism for harnesses that run the
  /// morsel-parallel executor (serial figure reproductions ignore it).
  /// Stamped into the JSON results either way, so baselines taken at
  /// different dops never compare silently.
  size_t dop = 1;

  static HarnessFlags Parse(int argc, char** argv);
};

/// One query's measurement under one adaptive configuration.
struct QueryRun {
  std::string name;
  double wall_ms = 0;        ///< median wall time over reps
  uint64_t work_units = 0;   ///< deterministic work units
  uint64_t rows_out = 0;
  ExecStats stats;           ///< from the last rep
};

/// Loads the DMV data set and prepares a planner.
class Workbench {
 public:
  explicit Workbench(const HarnessFlags& flags);

  Catalog& catalog() { return catalog_; }
  const Planner& planner() const { return *planner_; }
  const DmvCardinalities& cardinalities() const { return cards_; }
  const HarnessFlags& flags() const { return flags_; }

  /// Plans and runs one query `reps` times; reports the median wall time
  /// and the (deterministic) work units / stats.
  QueryRun Run(const JoinQuery& query, const AdaptiveOptions& options) const;

  /// Runs two configurations of one query with interleaved repetitions
  /// (A, B, A, B, ...) so that cache warm-up and CPU frequency drift hit
  /// both sides equally; reports the per-side medians.
  std::pair<QueryRun, QueryRun> RunPair(const JoinQuery& query,
                                        const AdaptiveOptions& options_a,
                                        const AdaptiveOptions& options_b) const;

  /// The paper's configurations.
  static AdaptiveOptions NoSwitch();
  static AdaptiveOptions SwitchBoth();    ///< c = 10, w = 1000 (Sec 5 defaults)
  static AdaptiveOptions InnerOnly();
  static AdaptiveOptions DrivingOnly();
  /// Strict paper behaviour: both reorder kinds, fixed check interval (no
  /// back-off) and no reorder hysteresis — the configuration Fig 10's
  /// window-size fluctuation was observed under.
  static AdaptiveOptions PaperStrict();

 private:
  HarnessFlags flags_;
  Catalog catalog_;
  std::unique_ptr<Planner> planner_;
  DmvCardinalities cards_;
};

/// Parallel capacity this process actually gets, measured once and cached:
/// a calibrated spin loop timed on one thread, then on one thread per CPU
/// the process may run on; n x (one-thread time) / (n-thread wall time),
/// median of three. About n with n free cores, about 1 when the CPUs are
/// shared or throttled — which hardware_concurrency() cannot see. The
/// first call spins for roughly half a second.
double MeasureEffectiveCores();

/// Below this many effective cores, wall-clock speedups of parallel or
/// shared runs measure the scheduler, not the engine: such runs stamp
/// `speedups_not_meaningful`.
constexpr double kMinMeaningfulCores = 1.5;

/// Machine-readable results next to the printed tables: when --json[=PATH]
/// was given, every recorded run (wall time, work units, rows, order
/// switches) and aggregate metric lands in one JSON file, stamped with the
/// run's provenance and MeasureEffectiveCores(). Disabled-state
/// calls are no-ops, so harnesses record unconditionally.
class JsonReport {
 public:
  /// `name` identifies the harness (e.g. "fig7_scatter"); the file path is
  /// flags.json_path, or BENCH_<name>.json when --json was given bare.
  JsonReport(std::string name, const HarnessFlags& flags);
  ~JsonReport();  // writes the file if Finish() was not called

  bool enabled() const { return enabled_; }

  /// Records one measured query run under a configuration label.
  void AddRun(const std::string& config, const QueryRun& run);
  /// Records one aggregate scalar (e.g. "concurrent_qps").
  void AddMetric(const std::string& name, double value);
  /// Writes the file once and prints its path; later calls are no-ops.
  void Finish();

 private:
  std::string name_;
  std::string path_;
  bool enabled_ = false;
  bool written_ = false;
  HarnessFlags flags_;
  std::vector<std::string> runs_;
  std::vector<std::string> metrics_;
};

/// Formats a speedup table footer: total elapsed improvement, improvement
/// over changed queries, max speedup (the Sec 5.1 claims).
struct ScatterSummary {
  double total_base_ms = 0;
  double total_adaptive_ms = 0;
  double total_base_changed_ms = 0;
  double total_adaptive_changed_ms = 0;
  double total_base_wu = 0;
  double total_adaptive_wu = 0;
  size_t queries = 0;
  size_t changed = 0;
  size_t improved = 0;
  size_t degraded = 0;  ///< >5% slower
  double max_speedup = 0;
  double max_wu_speedup = 0;

  void Add(const QueryRun& base, const QueryRun& adaptive);
  void Print(const char* base_label, const char* adaptive_label) const;
};

}  // namespace bench
}  // namespace ajr
