// Differential oracle for the adaptive executor.
//
// RunDifferential executes one WorkloadSpec through ReferenceExecutor (the
// trusted brute-force baseline) and through PipelineExecutor under a
// spread of adaptive configurations — from adaptation fully off to
// maximally aggressive switching (check every row, no hysteresis, tiny
// history window) — and reports the first discrepancy:
//
//   * result-multiset mismatch against the reference;
//   * a runtime invariant violation, observed through the executor's
//     ExecObserver hook by InvariantChecker:
//       I1  no join combination (RID tuple) is emitted twice, under any
//           switching schedule (Sec 4.2's duplicate prevention);
//       I2  a leg's driving-scan position never regresses — across
//           demotion and re-promotion the cursor moves strictly forward,
//           and a demoted leg's recorded prefix covers its last row;
//       I3  probe counters are consistent: out <= after_edges <= fetched
//           <= C(T) for every incoming row (the monitors' "outgoing <=
//           incoming x fan-out" mass balance);
//       I4  join-order changes happen only at depleted states (Sec 4.1):
//           an inner reorder at position p directly follows the depletion
//           of segment [p..k], a driving switch the depletion of the
//           whole pipeline;
//       I5  final ExecStats agree with the observed event stream (rows
//           emitted, driving rows produced).
//
// Failures carry a human-readable detail string and are deterministic for
// a given spec, which is what makes shrinking possible.

#pragma once

#include <optional>
#include <string>
#include <unordered_set>
#include <vector>

#include "adaptive/controller.h"
#include "exec/exec_observer.h"
#include "exec/fault_injection.h"
#include "exec/pipeline_executor.h"
#include "optimize/selectivity.h"
#include "testing/workload_gen.h"

namespace ajr {
namespace testing {

/// One executor configuration the differential harness runs.
struct DifferentialConfig {
  std::string name;
  AdaptiveOptions adaptive;
  StatsTier stats_tier = StatsTier::kBase;
  /// Configurations sharing a non-empty work_class claim to perform the
  /// same LOGICAL work — scan and probe-cache sharing are pure execution
  /// strategies, so every stat the adaptive controller can see (work units, row counts, checks, reorders, the event log, the
  /// final order) must be bit-identical across the class. RunDifferential
  /// enforces this and reports divergence as kind "work-divergence".
  /// Configs in one class must share a stats_tier (different tiers plan
  /// differently on purpose).
  std::string work_class;
  /// Degree of parallelism: > 1 runs the morsel-parallel executor with one
  /// InvariantChecker per worker (I1-I5 hold per worker pipeline) plus a
  /// cross-worker duplicate check and the usual result-multiset comparison
  /// against the reference. Parallel configs cannot join a work_class:
  /// morsel interleaving makes per-run work timing-dependent.
  size_t dop = 1;
  /// Driving-scan entries per morsel for dop > 1. Deliberately tiny so a
  /// small fuzz query still crosses many morsel boundaries, folds, and
  /// drain barriers.
  size_t morsel_size = 5;
  /// Cross-query sharing mode (the --share axis): which of the shared scan
  /// registry and the striped shared probe cache the run attaches to.
  enum class Share { kOff, kScan, kCache, kBoth };
  Share share = Share::kOff;
  /// Run the morsel-parallel orchestration even at dop == 1 (deterministic:
  /// one worker consumes morsels in dispenser order). Sharing configs set
  /// this so all four Share modes run the identical code path and can share
  /// a work_class; serial-path configs must never join such a class (the
  /// coordinator's event strings differ from the serial executor's).
  bool force_parallel = false;
};

/// The default configuration spread: static plan, paper defaults, and an
/// aggressive config that maximizes moments-of-symmetry churn (check every
/// row, zero thresholds, window of 4) under both statistics tiers, the
/// regret policy, and morsel-parallel twins at dop 2 and 4.
std::vector<DifferentialConfig> DefaultConfigs();

/// The subset of DefaultConfigs() whose AdaptiveOptions select `kind` —
/// the policy axis of the differential oracle (fuzz_differential
/// --policy=<name>, CI's per-policy smoke runs). Every subset still
/// compares against the trusted reference executor, so running the three
/// subsets asserts all policies agree on the result multiset.
std::vector<DifferentialConfig> ConfigsForPolicy(PolicyKind kind);

/// The cross-query sharing axis (fuzz_differential --share): the four
/// Share modes at forced-parallel dop 1 in one work_class — shared scans
/// replay per-morsel work and the shared cache replays recorded probe
/// triples, so work units, decision traces, events, and results must be
/// bit-identical to sharing-off — plus a dop-2 share-both config (classless:
/// morsel interleaving is timing-dependent). Every sharing config is
/// additionally run twice against the same registry/cache, and the warm
/// re-run must be work-identical to the cold one (retained passes and
/// cached probes replay, never change, the work).
std::vector<DifferentialConfig> ConfigsForShare();

/// The aggressive AdaptiveOptions used by DefaultConfigs (exported for
/// tests that want maximum switching on their own plans).
AdaptiveOptions AggressiveAdaptiveOptions();

/// First discrepancy found for one spec.
struct FailureReport {
  uint64_t seed = 0;
  std::string config;  ///< DifferentialConfig::name
  std::string kind;    ///< "result-mismatch" | "invariant" | "work-divergence" | "error"
  std::string detail;

  std::string ToString() const;
};

/// Options for RunDifferential.
struct DifferentialOptions {
  /// Configurations to run; empty = DefaultConfigs().
  std::vector<DifferentialConfig> configs;
  /// Deliberate executor bugs (oracle self-validation); null = none.
  const FaultInjection* faults = nullptr;
  /// Run the InvariantChecker observer alongside result comparison.
  bool check_invariants = true;
};

/// Executes `spec` under every configuration; returns the first failure,
/// or nullopt when all configurations match the reference and satisfy the
/// invariants. Non-OK status means the harness itself could not run the
/// spec (planning error on a valid query is reported as a failure, not a
/// status).
StatusOr<std::optional<FailureReport>> RunDifferential(
    const WorkloadSpec& spec, const DifferentialOptions& options = {});

/// ExecObserver that checks invariants I1-I4 online and I5 in FinalCheck.
/// Violations accumulate (capped) instead of aborting, so one run reports
/// every broken property.
class InvariantChecker : public ExecObserver {
 public:
  /// `cardinalities[t]` = row count of query table t.
  explicit InvariantChecker(std::vector<size_t> cardinalities);

  void OnDrivingRow(size_t t, Rid rid, const ScanPosition& pos) override;
  void OnProbe(size_t t, size_t level, uint64_t fetched, uint64_t after_edges,
               uint64_t out) override;
  void OnEmit(const std::vector<Rid>& rids) override;
  void OnDepleted(size_t level) override;
  void OnAdaptation(const AdaptationEvent& event) override;

  /// I5: cross-checks the final stats against the observed stream.
  void FinalCheck(const ExecStats& stats);

  bool ok() const { return violations_.empty(); }
  const std::vector<std::string>& violations() const { return violations_; }
  uint64_t emitted() const { return emitted_count_; }
  /// Distinct emitted RID tuples (serialized); the parallel harness unions
  /// these across workers to catch cross-worker duplicates, which no
  /// single worker's I1 can see.
  const std::unordered_set<std::string>& emitted_keys() const {
    return emitted_;
  }

 private:
  void Violation(std::string message);

  static constexpr size_t kMaxViolations = 16;
  std::vector<size_t> cardinalities_;
  std::vector<std::optional<ScanPosition>> last_driving_pos_;
  std::unordered_set<std::string> emitted_;
  uint64_t emitted_count_ = 0;
  uint64_t driving_rows_ = 0;
  /// Level of the most recent OnDepleted, cleared by any row-flow event:
  /// the state machine behind I4.
  std::optional<size_t> last_depleted_level_;
  std::vector<std::string> violations_;
};

}  // namespace testing
}  // namespace ajr
