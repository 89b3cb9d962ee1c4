// Catalog: tables, indexes, and statistics.
//
// The catalog owns all storage objects. Indexes are built with BulkLoad
// after table population (BuildIndex), matching the paper's setting where
// "proper indexes are built on join columns" (Sec 3.1). ANALYZE computes
// per-column statistics in two tiers (see column_stats.h). Both read a
// column as order-preserving uint64 keys radix-sorted by (key, RID), so
// set-up builds a Value only for the statistics it outputs.
//
// Every table interns its strings into the catalog's one StringPool. The
// first BuildIndex or Analyze ends loading: it seals the pool, so string
// ids follow byte order, and rewrites every table's string cells once.
// From then on a string cell is a key like any other, and equal strings
// are equal ids in every table. Loading a string the pool lacks after the
// seal fails a check; the engine only bulk-loads.
//
// Thread safety: the catalog follows a build-then-serve lifecycle. During
// the build phase (CreateTable / Append / BuildIndex / Analyze) it must be
// confined to one thread. Once built, the entire read surface — const
// GetTable, TableEntry's index/stats/schema lookups, and everything
// reachable from them (HeapTable/BPlusTree reads, see storage/) — is const
// with no interior mutability, so the concurrent query runtime shares one
// catalog across all workers without locking. DDL while queries are in
// flight is not supported.

#pragma once

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "catalog/column_stats.h"
#include "common/status.h"
#include "storage/bplus_tree.h"
#include "storage/heap_table.h"

namespace ajr {

/// A secondary index registered in the catalog: one B+-tree serving driving
/// scans, point probes, and positional predicates.
struct IndexInfo {
  std::string name;
  std::string column;      ///< indexed column name
  size_t column_idx = 0;   ///< resolved position in the table schema
  std::unique_ptr<BPlusTree> tree;

  /// Always `tree`; perfbench still reaches the probe index through it.
  const Index* ProbeIndex(IndexBackend) const { return tree.get(); }
};

/// A table plus its indexes and statistics.
class TableEntry {
 public:
  TableEntry(std::string name, Schema schema, StringPool* pool)
      : table_(std::move(name), std::move(schema), pool) {}

  HeapTable& table() { return table_; }
  const HeapTable& table() const { return table_; }
  const std::string& name() const { return table_.name(); }
  const Schema& schema() const { return table_.schema(); }

  const std::vector<std::unique_ptr<IndexInfo>>& indexes() const { return indexes_; }

  /// The index on `column`, or nullptr if none exists.
  const IndexInfo* FindIndexOnColumn(const std::string& column) const;

  /// The index named `name`, or nullptr.
  const IndexInfo* FindIndexByName(const std::string& name) const;

  /// Statistics for `column`; nullptr before ANALYZE.
  const ColumnStats* GetColumnStats(const std::string& column) const;

  /// Table cardinality as known to the statistics subsystem (exact row
  /// count; the paper assumes base cardinalities are reliable, Sec 4.3.3).
  size_t StatsCardinality() const { return table_.num_rows(); }

 private:
  friend class Catalog;
  HeapTable table_;
  std::vector<std::unique_ptr<IndexInfo>> indexes_;
  std::unordered_map<std::string, ColumnStats> column_stats_;
};

/// Options for Catalog::Analyze.
struct AnalyzeOptions {
  /// Collect the rich tier (frequent values + histogram), Sec 5.3.
  bool rich = false;
  /// Number of frequent values kept per column (rich tier).
  size_t top_k = 10;
  /// Equi-depth histogram buckets per column (rich tier).
  size_t histogram_buckets = 20;
};

/// Owns every table; entry point for DDL, index builds, and ANALYZE.
class Catalog {
 public:
  /// Creates an empty table. AlreadyExists if the name is taken.
  StatusOr<TableEntry*> CreateTable(const std::string& name, Schema schema);

  /// Looks up a table. NotFound if absent.
  StatusOr<TableEntry*> GetTable(const std::string& name);
  StatusOr<const TableEntry*> GetTable(const std::string& name) const;

  /// Builds (or rebuilds) a B+-tree index on `column` of `table_name` from
  /// current table contents via bulk load.
  Status BuildIndex(const std::string& table_name, const std::string& column,
                    const std::string& index_name, size_t fanout = 64);

  /// Computes column statistics for one table.
  Status Analyze(const std::string& table_name, const AnalyzeOptions& options = {});

  /// Computes column statistics for every table.
  Status AnalyzeAll(const AnalyzeOptions& options = {});

  std::vector<std::string> TableNames() const;

  /// The string pool every table shares (sealed once loading ends).
  const StringPool& pool() const { return *pool_; }

 private:
  /// Seals the pool and renumbers every table's string cells; a no-op once
  /// sealed.
  void SealStrings();

  // Heap-allocated so tables keep their pool pointer when the catalog moves.
  std::unique_ptr<StringPool> pool_ = std::make_unique<StringPool>();
  std::unordered_map<std::string, std::unique_ptr<TableEntry>> tables_;
};

}  // namespace ajr
