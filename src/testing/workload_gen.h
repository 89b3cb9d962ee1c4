// Seeded random workload generation for the differential-fuzzing oracle.
//
// A WorkloadSpec is a fully materializable description of one fuzz case:
// table schemas, every row literal, the index set, and a JoinQuery. It is
// deliberately value-like (copyable, no catalog pointers) so the shrinker
// can transform it structurally — drop a table, null a predicate, halve a
// table's rows — and re-materialize a fresh Catalog for each candidate.
//
// GenerateWorkload(seed) is a pure function of the seed (all randomness
// flows through common/random.h's platform-deterministic Rng), so any
// failure is replayable from `--seed` alone. Generated workloads cover the
// shapes the adaptive executor must survive:
//
//   * star / chain / mixed join topologies, plus optional cycle edges
//     (applied as residual join predicates, Sec 3.3);
//   * join keys of all joinable Value types — int64, interned strings, and
//     doubles (including +/-0.0) — with Zipf-skewed, correlated data;
//   * local predicates over every type: comparisons, IN lists, AND/OR/NOT,
//     bool columns, string constants absent from the catalog's pool;
//   * partial index coverage, so probe fallbacks and table-scan driving
//     legs are exercised.
//
// Columns are NOT NULL engine-wide (see types/value.h): three-valued logic
// does not exist in this engine, so the fuzzer's type coverage ends at the
// four Value types. NaN is likewise excluded — it may not enter keys.

#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "common/random.h"
#include "common/status.h"
#include "optimize/query.h"

namespace ajr {
namespace testing {

/// One table of a fuzz case: schema, full row data, and indexed columns.
struct TableSpec {
  std::string name;
  std::vector<ColumnDef> columns;
  std::vector<Row> rows;
  std::vector<std::string> indexed_columns;
};

/// A self-contained fuzz case. Everything RunDifferential needs.
struct WorkloadSpec {
  uint64_t seed = 0;  ///< generator seed (0 for hand-built / shrunk specs)
  std::vector<TableSpec> tables;
  JoinQuery query;

  /// Builds a catalog with every table loaded, indexed, and analyzed.
  StatusOr<std::unique_ptr<Catalog>> Materialize() const;

  /// Renders the spec as a self-contained repro: schemas, row literals,
  /// indexes, and the query, replayable without the generator.
  std::string ToRepro() const;

  /// Total rows across all tables (shrinker progress metric).
  size_t TotalRows() const;
};

/// The generator (and its shrinker/oracle consumers) is audited up to this
/// many tables; the planner's own ceiling is 64 (uint64_t masks). Wide
/// profiles may not exceed it.
inline constexpr size_t kMaxGeneratorTables = 20;

/// Knobs for GenerateWorkload. Defaults keep the reference executor cheap
/// enough for thousands of cases per minute.
struct GeneratorOptions {
  size_t min_tables = 2;
  size_t max_tables = 5;
  size_t min_rows = 15;
  size_t max_rows = 110;
  /// Probability of one extra (cyclic) join edge on queries of >= 3 tables.
  double extra_edge_prob = 0.35;
  /// Probability that a table carries a local predicate.
  double local_predicate_prob = 0.75;
  /// Cap on the exact (predicate-free) spanning-tree join size: while the
  /// estimate exceeds it, every other row of the largest table is dropped.
  /// This is what keeps the brute-force reference executor tractable.
  double max_output_rows = 150000;

  /// The wide-join axis (ISSUE 8): 6-20 tables of small cardinality with a
  /// much tighter output cap, so 20-leg pipelines stay inside the
  /// reference executor's budget across the oracle's ~17-config spread.
  static GeneratorOptions WideProfile() {
    GeneratorOptions o;
    o.min_tables = 6;
    o.max_tables = kMaxGeneratorTables;
    o.min_rows = 8;
    o.max_rows = 44;
    o.extra_edge_prob = 0.30;
    o.max_output_rows = 4000;
    return o;
  }
};

/// Deterministically generates the fuzz case for `seed`.
WorkloadSpec GenerateWorkload(uint64_t seed, const GeneratorOptions& options = {});

/// Exact output size of the spanning-tree join (edges [0, n-2], no local
/// predicates, extra edges ignored): the bound GenerateWorkload caps with
/// GeneratorOptions::max_output_rows. Requires the generator's topology
/// invariant — edge t-1 connects table t to a lower-index parent — which
/// holds for every generated spec. Exposed so the wide-axis tests can
/// audit the cap directly.
double EstimateTreeJoinSize(const std::vector<TableSpec>& tables,
                            const std::vector<JoinEdge>& edges);

// ---- Structural transforms (the shrinker's moves) ------------------------
//
// Each returns the transformed spec; invalid transforms (disconnecting the
// join graph, dropping the last table/output) return std::nullopt. All
// transforms keep the spec materializable.

/// Removes table `t` (and its edges / predicate / output columns).
std::optional<WorkloadSpec> DropTable(const WorkloadSpec& spec, size_t t);

/// Removes edge `e` if the join graph stays connected.
std::optional<WorkloadSpec> DropEdge(const WorkloadSpec& spec, size_t e);

/// Nulls table `t`'s local predicate (no-op -> nullopt).
std::optional<WorkloadSpec> DropPredicate(const WorkloadSpec& spec, size_t t);

/// Keeps only one half of table `t`'s rows: `half` 0 = first, 1 = second,
/// 2 = even-indexed. nullopt when the table is already <= 2 rows.
std::optional<WorkloadSpec> HalveRows(const WorkloadSpec& spec, size_t t, int half);

/// Removes one index (table `t`, position `i` in indexed_columns).
std::optional<WorkloadSpec> DropIndex(const WorkloadSpec& spec, size_t t, size_t i);

/// Removes output column `i`, keeping at least one.
std::optional<WorkloadSpec> DropOutputColumn(const WorkloadSpec& spec, size_t i);

}  // namespace testing
}  // namespace ajr
