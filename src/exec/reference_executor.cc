#include "exec/reference_executor.h"

#include <algorithm>

#include "expr/evaluator.h"

namespace ajr {

namespace {

bool RowLess(const Row& a, const Row& b) {
  for (size_t i = 0; i < std::min(a.size(), b.size()); ++i) {
    int c = a[i].Compare(b[i]);
    if (c != 0) return c < 0;
  }
  return a.size() < b.size();
}

/// splitmix64 finalizer.
uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

void SortRows(std::vector<Row>* rows) {
  std::sort(rows->begin(), rows->end(), RowLess);
}

void RowMultisetDigest::Add(const Row& row) {
  uint64_t h = 0;
  for (const Value& v : row) h = Mix64(h ^ static_cast<uint64_t>(v.Hash()));
  sum += Mix64(h);
  ++rows;
}

StatusOr<std::vector<Row>> ExecuteReference(const Catalog& catalog,
                                            const JoinQuery& query) {
  std::vector<Row> out;
  AJR_RETURN_IF_ERROR(
      ExecuteReference(catalog, query, [&out](const Row& row) { out.push_back(row); }));
  return out;
}

Status ExecuteReference(const Catalog& catalog, const JoinQuery& query,
                        const std::function<void(const Row&)>& sink) {
  AJR_RETURN_IF_ERROR(query.Validate());
  const size_t n = query.tables.size();
  std::vector<const TableEntry*> entries(n);
  std::vector<BoundPredicatePtr> local(n);
  std::vector<std::vector<size_t>> edge_col(n);
  for (size_t t = 0; t < n; ++t) {
    AJR_ASSIGN_OR_RETURN(const TableEntry* entry,
                         catalog.GetTable(query.tables[t].table));
    entries[t] = entry;
    AJR_ASSIGN_OR_RETURN(local[t],
                         BindPredicate(query.local_predicates[t], entry->schema(),
                                       &entry->table().pool()));
    edge_col[t].assign(query.edges.size(), SIZE_MAX);
    for (const auto& e : query.edges) {
      if (!e.Touches(t)) continue;
      AJR_ASSIGN_OR_RETURN(size_t col, entry->schema().ColumnIndex(e.ColumnOn(t)));
      edge_col[t][e.edge_id] = col;
    }
  }
  std::vector<std::pair<size_t, size_t>> output_cols;
  for (const auto& oc : query.output) {
    AJR_ASSIGN_OR_RETURN(size_t col,
                         entries[oc.table]->schema().ColumnIndex(oc.column));
    output_cols.emplace_back(oc.table, col);
  }

  // Pre-filter each table by its local predicate.
  std::vector<std::vector<Rid>> candidates(n);
  for (size_t t = 0; t < n; ++t) {
    const HeapTable& table = entries[t]->table();
    for (Rid rid = 0; rid < table.num_rows(); ++rid) {
      if (local[t]->Eval(table.View(rid))) candidates[t].push_back(rid);
    }
  }

  std::vector<RowView> current(n);
  Row row;
  // Depth-first enumeration in query-table order; each level checks the
  // join edges to already-bound tables.
  struct Enumerator {
    const JoinQuery& query;
    const std::vector<const TableEntry*>& entries;
    const std::vector<std::vector<Rid>>& candidates;
    const std::vector<std::vector<size_t>>& edge_col;
    const std::vector<std::pair<size_t, size_t>>& output_cols;
    const std::function<void(const Row&)>& sink;
    std::vector<RowView>& current;
    Row& out;

    void Recurse(size_t t) {
      if (t == query.tables.size()) {
        out.clear();
        for (const auto& [ot, col] : output_cols) {
          out.push_back(current[ot].GetValue(col));
        }
        sink(out);
        return;
      }
      for (Rid rid : candidates[t]) {
        RowView row = entries[t]->table().View(rid);
        bool pass = true;
        for (const auto& e : query.edges) {
          if (!e.Touches(t) || e.Other(t) >= t) continue;
          if (!row.CellEquals(edge_col[t][e.edge_id], current[e.Other(t)],
                              edge_col[e.Other(t)][e.edge_id])) {
            pass = false;
            break;
          }
        }
        if (!pass) continue;
        current[t] = row;
        Recurse(t + 1);
      }
    }
  } enumerator{query, entries, candidates, edge_col, output_cols, sink, current, row};
  enumerator.Recurse(0);
  return Status::OK();
}

}  // namespace ajr
