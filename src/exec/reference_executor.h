// ReferenceExecutor: a deliberately naive join evaluator used as the
// correctness oracle in tests. It enumerates tables in query order with
// plain nested loops (no indexes, no adaptation), so its result multiset is
// trivially correct; the adaptive executor must produce exactly the same
// multiset under any switching schedule.

#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "catalog/catalog.h"
#include "common/status.h"
#include "optimize/query.h"

namespace ajr {

/// Evaluates `query` by brute force, handing each projected output row to
/// `sink` (in no particular order).
Status ExecuteReference(const Catalog& catalog, const JoinQuery& query,
                        const std::function<void(const Row&)>& sink);

/// Evaluates `query` by brute force; returns the projected output rows
/// (unordered — compare as multisets via SortRows).
StatusOr<std::vector<Row>> ExecuteReference(const Catalog& catalog,
                                            const JoinQuery& query);

/// Sorts rows lexicographically for multiset comparison.
void SortRows(std::vector<Row>* rows);

/// Order-independent digest of a row multiset: the row count plus a sum of
/// per-row hashes. Comparing digests checks multiset equality (up to hash
/// collisions) without materializing or sorting the rows, which is what
/// keeps million-row result comparisons cheap.
struct RowMultisetDigest {
  uint64_t rows = 0;
  uint64_t sum = 0;

  void Add(const Row& row);
  bool operator==(const RowMultisetDigest& other) const = default;
};

}  // namespace ajr
