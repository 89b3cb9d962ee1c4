#include "testing/workload_gen.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>
#include <unordered_map>

#include "common/string_util.h"

namespace ajr {
namespace testing {

namespace {

// Shared string vocabulary: short values, shared prefixes (byte-compare
// coverage), and one long outlier. Join keys draw from the front so
// cross-table matches are common.
const char* kVocab[] = {"alpha", "alphabet", "beta",  "gamma", "gamma_ray",
                        "delta", "pfx_0",    "pfx_1", "pfx_00",
                        "a_rather_long_string_value_for_pool_coverage"};
constexpr size_t kVocabSize = sizeof(kVocab) / sizeof(kVocab[0]);

// Constant generators --------------------------------------------------------

Value RandomDoubleConst(Rng* rng) {
  double r = rng->NextDouble();
  if (r < 0.05) return Value(0.0);
  if (r < 0.08) return Value(-0.0);
  if (r < 0.10) return Value(std::numeric_limits<double>::infinity());
  if (r < 0.12) return Value(-std::numeric_limits<double>::infinity());
  if (r < 0.35) return Value(static_cast<double>(rng->NextInt64(-20, 20)));
  return Value(rng->NextGaussian() * 10.0);
}

CompareOp RandomOp(Rng* rng) {
  static const CompareOp kOps[] = {CompareOp::kEq, CompareOp::kNe, CompareOp::kLt,
                                   CompareOp::kLe, CompareOp::kGt, CompareOp::kGe};
  return kOps[rng->NextUint64(6)];
}

// One random predicate clause over the fixed fuzz schema. `depth` bounds
// recursive AND/OR/NOT shapes.
ExprPtr RandomClause(Rng* rng, int64_t jk_domain, int depth) {
  switch (rng->NextUint64(depth > 0 ? 10 : 7)) {
    case 0:
      return ColCmp("v", RandomOp(rng), Value(rng->NextInt64(0, 49)));
    case 1:
      return ColCmp("grp", RandomOp(rng), Value(rng->NextInt64(0, 4)));
    case 2:
      return ColCmp("jk_i", RandomOp(rng), Value(rng->NextInt64(0, jk_domain)));
    case 3:
      return ColCmp("d", RandomOp(rng), RandomDoubleConst(rng));
    case 4: {
      // 15%: a constant absent from every pool (binder constant-folding).
      Value c = rng->NextBool(0.15)
                    ? Value("zzz_not_interned")
                    : Value(kVocab[rng->NextUint64(kVocabSize)]);
      return ColCmp("s", RandomOp(rng), std::move(c));
    }
    case 5:
      return ColCmp("b", CompareOp::kEq, Value(rng->NextBool()));
    case 6: {
      if (rng->NextBool()) {
        std::vector<Value> vals;
        for (size_t i = 0, n = 1 + rng->NextUint64(4); i < n; ++i) {
          vals.push_back(Value(rng->NextInt64(0, 49)));
        }
        return In("v", std::move(vals));
      }
      std::vector<Value> vals;
      for (size_t i = 0, n = 1 + rng->NextUint64(3); i < n; ++i) {
        vals.push_back(Value(kVocab[rng->NextUint64(kVocabSize)]));
      }
      return In("s", std::move(vals));
    }
    case 7:
      return Not(RandomClause(rng, jk_domain, depth - 1));
    case 8:
      return Or({RandomClause(rng, jk_domain, depth - 1),
                 RandomClause(rng, jk_domain, depth - 1)});
    default:
      return And({RandomClause(rng, jk_domain, depth - 1),
                  RandomClause(rng, jk_domain, depth - 1)});
  }
}

// Join-key map key for the output-size estimator; doubles are compared
// after -0.0 canonicalization, matching the storage codec.
std::string JoinKeyString(const Value& v) {
  if (v.type() == DataType::kDouble && v.AsDouble() == 0.0) return "0";
  return v.ToString();
}

// Re-derives edge_id = position after any edge-list surgery.
void RenumberEdges(JoinQuery* q) {
  for (size_t i = 0; i < q->edges.size(); ++i) q->edges[i].edge_id = i;
}

std::optional<WorkloadSpec> ValidatedOrNull(WorkloadSpec spec) {
  if (!spec.query.Validate().ok()) return std::nullopt;
  return spec;
}

}  // namespace

// A bottom-up weight DP over the parent tree. Used to keep generated cases
// within the brute-force reference executor's budget — skewed join keys
// can otherwise make the multiset blow into the hundreds of millions.
// Extra (cyclic) edges and predicates only shrink the result, so this is
// an upper bound for the full query.
double EstimateTreeJoinSize(const std::vector<TableSpec>& tables,
                            const std::vector<JoinEdge>& edges) {
  const size_t n = tables.size();
  if (n == 0) return 0;
  std::vector<std::vector<double>> weight(n);
  for (size_t t = 0; t < n; ++t) weight[t].assign(tables[t].rows.size(), 1.0);
  // Children have higher indices than parents (generator invariant), so a
  // reverse sweep folds each subtree into its parent's row weights.
  for (size_t t = n; t-- > 1;) {
    const JoinEdge& e = edges[t - 1];  // edge t-1 connects parent -> t
    const size_t parent = e.Other(t);
    const std::string& child_col = e.ColumnOn(t);
    const std::string& parent_col = e.ColumnOn(parent);
    size_t child_slot = SIZE_MAX, parent_slot = SIZE_MAX;
    for (size_t c = 0; c < tables[t].columns.size(); ++c) {
      if (tables[t].columns[c].name == child_col) child_slot = c;
    }
    for (size_t c = 0; c < tables[parent].columns.size(); ++c) {
      if (tables[parent].columns[c].name == parent_col) parent_slot = c;
    }
    std::unordered_map<std::string, double> by_key;
    for (size_t r = 0; r < tables[t].rows.size(); ++r) {
      by_key[JoinKeyString(tables[t].rows[r][child_slot])] += weight[t][r];
    }
    for (size_t r = 0; r < tables[parent].rows.size(); ++r) {
      auto it = by_key.find(JoinKeyString(tables[parent].rows[r][parent_slot]));
      weight[parent][r] *= it == by_key.end() ? 0.0 : it->second;
    }
  }
  double total = 0;
  for (double w : weight[0]) total += w;
  return total;
}

StatusOr<std::unique_ptr<Catalog>> WorkloadSpec::Materialize() const {
  auto catalog = std::make_unique<Catalog>();
  // Every table loads before the first index build seals the string pool.
  for (const TableSpec& t : tables) {
    AJR_ASSIGN_OR_RETURN(TableEntry * entry,
                         catalog->CreateTable(t.name, Schema(t.columns)));
    for (const Row& row : t.rows) {
      AJR_RETURN_IF_ERROR(entry->table().Append(row).status());
    }
  }
  for (const TableSpec& t : tables) {
    for (const std::string& col : t.indexed_columns) {
      AJR_RETURN_IF_ERROR(catalog->BuildIndex(t.name, col, t.name + "_" + col));
    }
  }
  AnalyzeOptions analyze;
  analyze.rich = true;
  AJR_RETURN_IF_ERROR(catalog->AnalyzeAll(analyze));
  return catalog;
}

size_t WorkloadSpec::TotalRows() const {
  size_t total = 0;
  for (const TableSpec& t : tables) total += t.rows.size();
  return total;
}

std::string WorkloadSpec::ToRepro() const {
  std::ostringstream out;
  out << "== fuzz repro (seed " << seed << ") ==\n";
  for (const TableSpec& t : tables) {
    out << "table " << t.name << " (";
    for (size_t c = 0; c < t.columns.size(); ++c) {
      if (c > 0) out << ", ";
      out << t.columns[c].name << ":" << DataTypeName(t.columns[c].type);
    }
    out << ") rows=" << t.rows.size() << " indexes=[";
    for (size_t i = 0; i < t.indexed_columns.size(); ++i) {
      if (i > 0) out << ",";
      out << t.indexed_columns[i];
    }
    out << "]\n";
    for (const Row& row : t.rows) {
      out << "  (";
      for (size_t c = 0; c < row.size(); ++c) {
        if (c > 0) out << ", ";
        out << row[c].ToString();
      }
      out << ")\n";
    }
  }
  out << "query: " << query.ToString() << "\n";
  if (seed != 0) {
    out << "replay: fuzz_differential --seed=" << seed << " --count=1\n";
  }
  return out.str();
}

WorkloadSpec GenerateWorkload(uint64_t seed, const GeneratorOptions& options) {
  Rng rng(seed);
  WorkloadSpec spec;
  spec.seed = seed;
  // Clamp to the audited ceiling (see kMaxGeneratorTables): wider asks are
  // a caller bug, not a supported regime.
  const size_t max_tables = std::min(options.max_tables, kMaxGeneratorTables);
  const size_t num_tables =
      options.min_tables + rng.NextUint64(max_tables - options.min_tables + 1);

  // Join-key domains are shared across tables so matches are common. The
  // int domain scales with table size to keep reference-executor output
  // bounded; string/double domains are prefixes of fixed vocabularies.
  const int64_t jk_domain = 6 + static_cast<int64_t>(rng.NextUint64(12));
  const size_t str_domain = 3 + rng.NextUint64(kVocabSize - 3);
  const int64_t dbl_domain = 5 + static_cast<int64_t>(rng.NextUint64(8));

  for (size_t t = 0; t < num_tables; ++t) {
    TableSpec table;
    table.name = "t" + std::to_string(t);
    table.columns = {{"jk_i", DataType::kInt64},  {"jk_s", DataType::kString},
                     {"jk_d", DataType::kDouble}, {"v", DataType::kInt64},
                     {"d", DataType::kDouble},    {"s", DataType::kString},
                     {"b", DataType::kBool},      {"grp", DataType::kInt64}};
    const size_t rows =
        options.min_rows + rng.NextUint64(options.max_rows - options.min_rows + 1);
    // Half the tables draw join keys from a skewed distribution; v and grp
    // are correlated with jk_i on a per-table coin flip (the paper's
    // correlated-predicate degradation scenario).
    ZipfDistribution zipf(static_cast<size_t>(jk_domain),
                          rng.NextBool() ? (rng.NextBool() ? 1.4 : 0.8) : 0.0);
    const bool v_correlated = rng.NextBool();
    const bool grp_correlated = rng.NextBool();
    for (size_t r = 0; r < rows; ++r) {
      int64_t jk_i = static_cast<int64_t>(zipf.Sample(&rng));
      std::string jk_s = kVocab[rng.NextUint64(str_domain)];
      double jk_d = static_cast<double>(rng.NextInt64(0, dbl_domain) - dbl_domain / 2) * 0.5;
      if (jk_d == 0.0 && rng.NextBool()) jk_d = -0.0;  // canonicalization probe
      int64_t v = v_correlated ? jk_i * 3 + rng.NextInt64(0, 2)
                               : rng.NextInt64(0, 49);
      double d;
      double dr = rng.NextDouble();
      if (dr < 0.02) {
        d = std::numeric_limits<double>::infinity();
      } else if (dr < 0.04) {
        d = -std::numeric_limits<double>::infinity();
      } else if (dr < 0.07) {
        d = rng.NextBool() ? 0.0 : -0.0;
      } else if (dr < 0.30) {
        d = static_cast<double>(rng.NextInt64(-20, 20));
      } else {
        d = rng.NextGaussian() * 10.0;
      }
      std::string s = kVocab[rng.NextUint64(kVocabSize)];
      bool b = rng.NextBool();
      int64_t grp = grp_correlated ? jk_i % 5 : rng.NextInt64(0, 4);
      table.rows.push_back({Value(jk_i), Value(std::move(jk_s)), Value(jk_d),
                            Value(v), Value(d), Value(std::move(s)), Value(b),
                            Value(grp)});
    }
    // Partial index coverage: missing join indexes exercise the filtered
    // table-scan probe fallback and table-scan driving legs.
    if (rng.NextBool(0.7)) table.indexed_columns.push_back("jk_i");
    if (rng.NextBool(0.5)) table.indexed_columns.push_back("jk_s");
    if (rng.NextBool(0.5)) table.indexed_columns.push_back("jk_d");
    if (rng.NextBool(0.3)) table.indexed_columns.push_back("v");
    spec.tables.push_back(std::move(table));
  }

  JoinQuery& q = spec.query;
  q.name = "fuzz" + std::to_string(seed);
  for (size_t t = 0; t < num_tables; ++t) {
    q.tables.push_back({"a" + std::to_string(t), "t" + std::to_string(t)});
  }

  // Topology: chain, star, or random-parent spanning tree; each edge joins
  // on a per-edge join-key type.
  const uint64_t topology = rng.NextUint64(3);
  for (size_t t = 1; t < num_tables; ++t) {
    size_t parent = topology == 0 ? t - 1
                    : topology == 1 ? 0
                                    : static_cast<size_t>(rng.NextUint64(t));
    double r = rng.NextDouble();
    const char* col = r < 0.5 ? "jk_i" : (r < 0.8 ? "jk_s" : "jk_d");
    q.edges.push_back({parent, col, t, col, q.edges.size()});
  }
  // Optional extra edge -> cyclic join graph (residual join predicate).
  if (num_tables >= 3 && rng.NextBool(options.extra_edge_prob)) {
    size_t a = rng.NextUint64(num_tables);
    size_t b = rng.NextUint64(num_tables);
    if (a != b) {
      bool exists = false;
      for (const auto& e : q.edges) {
        if ((e.left == a && e.right == b) || (e.left == b && e.right == a)) {
          exists = true;
        }
      }
      if (!exists) q.edges.push_back({a, "v", b, "v", q.edges.size()});
    }
  }

  // Keep the case inside the reference executor's budget: while the exact
  // (predicate-free) tree-join size exceeds the cap, deterministically
  // drop every other row of the largest table and re-measure.
  while (EstimateTreeJoinSize(spec.tables, q.edges) > options.max_output_rows) {
    size_t largest = 0;
    for (size_t t = 1; t < num_tables; ++t) {
      if (spec.tables[t].rows.size() > spec.tables[largest].rows.size()) largest = t;
    }
    std::vector<Row>& rows = spec.tables[largest].rows;
    if (rows.size() <= 2) break;  // degenerate; give up shrinking
    std::vector<Row> kept;
    for (size_t i = 0; i < rows.size(); i += 2) kept.push_back(std::move(rows[i]));
    rows = std::move(kept);
  }

  q.local_predicates.assign(num_tables, nullptr);
  for (size_t t = 0; t < num_tables; ++t) {
    if (rng.NextBool(options.local_predicate_prob)) {
      q.local_predicates[t] = RandomClause(&rng, jk_domain, 2);
    }
  }

  // 1-3 output columns over random tables; dedupe not needed (projection
  // may repeat a column).
  const size_t num_out = 1 + rng.NextUint64(3);
  static const char* kOutCols[] = {"jk_i", "jk_s", "jk_d", "v", "d", "s", "b", "grp"};
  for (size_t i = 0; i < num_out; ++i) {
    q.output.push_back({static_cast<size_t>(rng.NextUint64(num_tables)),
                        kOutCols[rng.NextUint64(8)]});
  }
  return spec;
}

std::optional<WorkloadSpec> DropTable(const WorkloadSpec& spec, size_t t) {
  if (spec.tables.size() <= 1 || t >= spec.tables.size()) return std::nullopt;
  WorkloadSpec out = spec;
  out.tables.erase(out.tables.begin() + static_cast<ptrdiff_t>(t));
  JoinQuery& q = out.query;
  q.tables.erase(q.tables.begin() + static_cast<ptrdiff_t>(t));
  q.local_predicates.erase(q.local_predicates.begin() + static_cast<ptrdiff_t>(t));
  std::vector<JoinEdge> kept;
  for (JoinEdge e : q.edges) {
    if (e.Touches(t)) continue;
    if (e.left > t) --e.left;
    if (e.right > t) --e.right;
    kept.push_back(e);
  }
  q.edges = std::move(kept);
  RenumberEdges(&q);
  std::vector<OutputColumn> out_cols;
  for (OutputColumn oc : q.output) {
    if (oc.table == t) continue;
    if (oc.table > t) --oc.table;
    out_cols.push_back(oc);
  }
  if (out_cols.empty()) out_cols.push_back({0, out.tables[0].columns[0].name});
  q.output = std::move(out_cols);
  return ValidatedOrNull(std::move(out));
}

std::optional<WorkloadSpec> DropEdge(const WorkloadSpec& spec, size_t e) {
  if (e >= spec.query.edges.size()) return std::nullopt;
  WorkloadSpec out = spec;
  out.query.edges.erase(out.query.edges.begin() + static_cast<ptrdiff_t>(e));
  RenumberEdges(&out.query);
  return ValidatedOrNull(std::move(out));
}

std::optional<WorkloadSpec> DropPredicate(const WorkloadSpec& spec, size_t t) {
  if (t >= spec.query.local_predicates.size() ||
      spec.query.local_predicates[t] == nullptr) {
    return std::nullopt;
  }
  WorkloadSpec out = spec;
  out.query.local_predicates[t] = nullptr;
  return out;
}

std::optional<WorkloadSpec> HalveRows(const WorkloadSpec& spec, size_t t, int half) {
  if (t >= spec.tables.size() || spec.tables[t].rows.size() <= 2) return std::nullopt;
  WorkloadSpec out = spec;
  const std::vector<Row>& rows = spec.tables[t].rows;
  std::vector<Row> kept;
  const size_t mid = rows.size() / 2;
  for (size_t i = 0; i < rows.size(); ++i) {
    bool keep = half == 0 ? i < mid : (half == 1 ? i >= mid : i % 2 == 0);
    if (keep) kept.push_back(rows[i]);
  }
  if (kept.empty() || kept.size() == rows.size()) return std::nullopt;
  out.tables[t].rows = std::move(kept);
  return out;
}

std::optional<WorkloadSpec> DropIndex(const WorkloadSpec& spec, size_t t, size_t i) {
  if (t >= spec.tables.size() || i >= spec.tables[t].indexed_columns.size()) {
    return std::nullopt;
  }
  WorkloadSpec out = spec;
  out.tables[t].indexed_columns.erase(out.tables[t].indexed_columns.begin() +
                                      static_cast<ptrdiff_t>(i));
  return out;
}

std::optional<WorkloadSpec> DropOutputColumn(const WorkloadSpec& spec, size_t i) {
  if (spec.query.output.size() <= 1 || i >= spec.query.output.size()) {
    return std::nullopt;
  }
  WorkloadSpec out = spec;
  out.query.output.erase(out.query.output.begin() + static_cast<ptrdiff_t>(i));
  return out;
}

}  // namespace testing
}  // namespace ajr
