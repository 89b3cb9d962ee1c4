// DMV query templates (Sec 5 of the paper).
//
// The paper uses "five query templates whose query execution plans ... were
// mostly pipelined index nested-loop joins", all 4-table joins over
// Owner/Car/Demographics/Accidents with varying local-predicate
// combinations, plus six-table variants joining Location and Time
// (Sec 5.5). The paper does not print the templates, so these are
// reconstructed from Examples 1-3 and the per-template behaviour reported
// in Figures 8/9:
//
//  T1  Example 1 shape: OR of an economy and a luxury make on Car, a
//      country predicate on Owner, a salary cutoff on Demographics. The
//      best inner order differs between the two make groups, so inner
//      reordering fires mid-scan.
//  T2  Example 2 shape: correlated make+model pair on Car, correlated
//      country3+city pair on Owner, an age cutoff on Demographics —
//      independence misestimates drive a wrong initial order.
//  T3  Country-driven: equality on owner.country3 (often the skewed head
//      value), ranges on car.year / demographics.salary / accidents
//      seriousness; the initial driving leg is frequently wrong.
//  T4  Example 3 shape: always the skew-head country 'US' plus a city —
//      the optimizer's uniform estimate prefers the country3 index even
//      though the city index is far better (the paper's degradation case).
//  T5  Locked driving leg: a highly selective make+year pair on Car keeps
//      Car the correct driving leg, but correlation between make tier and
//      salary makes the optimizer's inner order wrong — only inner
//      reordering helps (Fig 9 shows no driving change for T5).
//
// Parameters are sampled from the actual data (so predicates hit real
// values); generation is deterministic per (template, variant, seed).

#pragma once

#include <cstdint>
#include <vector>

#include "catalog/catalog.h"
#include "common/random.h"
#include "common/status.h"
#include "optimize/query.h"

namespace ajr {

/// Number of distinct 4-table templates (T1..T5).
inline constexpr int kNumFourTableTemplates = 5;
/// Number of distinct 6-table templates (S1, S2).
inline constexpr int kNumSixTableTemplates = 2;
/// Number of distinct wide templates (W1 star, W2 snowflake).
inline constexpr int kNumWideTemplates = 2;
/// Wide templates span this table-count range (the six-table skeleton plus
/// at least one extra accident arm, up to the ROADMAP's 20-table target).
inline constexpr size_t kMinWideTables = 7;
inline constexpr size_t kMaxWideTables = 20;

/// Generates parameterized queries from the DMV templates.
class DmvQueryGenerator {
 public:
  /// `catalog` must already hold the DMV tables (see GenerateDmv).
  DmvQueryGenerator(const Catalog* catalog, uint64_t seed = 7);

  /// One instance of 4-table template `template_id` (1-based, 1..5).
  /// `variant` selects the parameter draw; deterministic per
  /// (template_id, variant, seed).
  StatusOr<JoinQuery> Generate(int template_id, size_t variant) const;

  /// `per_template` instances of each of T1..T5 (the paper's ~300-query
  /// mix uses per_template = 60), ordered T1 variants first.
  StatusOr<std::vector<JoinQuery>> GenerateMix(size_t per_template) const;

  /// One instance of 6-table template `template_id` (1-based, 1..2).
  StatusOr<JoinQuery> GenerateSixTable(int template_id, size_t variant) const;

  /// `count` six-table queries alternating S1/S2 (the paper uses 100).
  StatusOr<std::vector<JoinQuery>> GenerateSixTableMix(size_t count) const;

  /// One instance of wide template `template_id` (1-based) at exactly
  /// `num_tables` tables in [kMinWideTables, kMaxWideTables]:
  ///   W1  wide star — the six-table skeleton plus accident aliases all
  ///       joined to Car, each carrying its own seriousness/year filter so
  ///       per-arm fan-out stays below 1 and the output bounded;
  ///   W2  snowflake — extra (accidents -> location, time) arms hung off
  ///       Car, with state/year predicates on the outer dimensions.
  /// Tables are appended so each joins an earlier one (the reference
  /// executor's enumeration order stays tractable). Deterministic per
  /// (template_id, num_tables, variant, seed).
  StatusOr<JoinQuery> GenerateWide(int template_id, size_t num_tables,
                                   size_t variant) const;

  /// The paper's literal Example 1 query.
  static JoinQuery Example1();
  /// The paper's literal Example 2 query (2-table).
  static JoinQuery Example2();
  /// The paper's literal Example 3 query.
  static JoinQuery Example3();

 private:
  const Catalog* catalog_;
  uint64_t seed_;
};

}  // namespace ajr
