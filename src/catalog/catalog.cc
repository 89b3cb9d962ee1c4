#include "catalog/catalog.h"

#include <algorithm>
#include <unordered_map>

#include "common/string_util.h"

namespace ajr {

const IndexInfo* TableEntry::FindIndexOnColumn(const std::string& column) const {
  for (const auto& idx : indexes_) {
    if (idx->column == column) return idx.get();
  }
  return nullptr;
}

const IndexInfo* TableEntry::FindIndexByName(const std::string& name) const {
  for (const auto& idx : indexes_) {
    if (idx->name == name) return idx.get();
  }
  return nullptr;
}

const ColumnStats* TableEntry::GetColumnStats(const std::string& column) const {
  auto it = column_stats_.find(column);
  return it == column_stats_.end() ? nullptr : &it->second;
}

StatusOr<TableEntry*> Catalog::CreateTable(const std::string& name, Schema schema) {
  if (tables_.count(name) > 0) {
    return Status::AlreadyExists(StrCat("table '", name, "' already exists"));
  }
  auto entry = std::make_unique<TableEntry>(name, std::move(schema));
  TableEntry* raw = entry.get();
  tables_.emplace(name, std::move(entry));
  return raw;
}

StatusOr<TableEntry*> Catalog::GetTable(const std::string& name) {
  auto it = tables_.find(name);
  if (it == tables_.end()) {
    return Status::NotFound(StrCat("table '", name, "' does not exist"));
  }
  return it->second.get();
}

StatusOr<const TableEntry*> Catalog::GetTable(const std::string& name) const {
  auto it = tables_.find(name);
  if (it == tables_.end()) {
    return Status::NotFound(StrCat("table '", name, "' does not exist"));
  }
  return static_cast<const TableEntry*>(it->second.get());
}

Status Catalog::BuildIndex(const std::string& table_name, const std::string& column,
                           const std::string& index_name, size_t fanout) {
  AJR_ASSIGN_OR_RETURN(TableEntry * entry, GetTable(table_name));
  if (entry->FindIndexByName(index_name) != nullptr) {
    return Status::AlreadyExists(StrCat("index '", index_name, "' already exists"));
  }
  AJR_ASSIGN_OR_RETURN(size_t col_idx, entry->schema().ColumnIndex(column));

  const HeapTable& table = entry->table();
  DataType key_type = entry->schema().column(col_idx).type;

  // Build entries straight from page cells: numeric keys order-encode, and
  // string keys reuse the table pool's ids (the tree shares the pool), so
  // no Value is materialized per row.
  std::vector<BPlusTree::EncodedEntry> entries;
  entries.reserve(table.num_rows());
  if (key_type == DataType::kString) {
    for (Rid rid = 0; rid < table.num_rows(); ++rid) {
      entries.push_back({table.View(rid).GetStringId(col_idx), rid});
    }
    const StringPool& pool = table.pool();
    std::sort(entries.begin(), entries.end(),
              [&pool](const BPlusTree::EncodedEntry& a, const BPlusTree::EncodedEntry& b) {
                int c = pool.Compare(static_cast<uint32_t>(a.key),
                                     static_cast<uint32_t>(b.key));
                if (c != 0) return c < 0;
                return a.rid < b.rid;
              });
  } else {
    for (Rid rid = 0; rid < table.num_rows(); ++rid) {
      entries.push_back({OrderEncodeCell(table.View(rid).raw(col_idx), key_type), rid});
    }
    std::sort(entries.begin(), entries.end(),
              [](const BPlusTree::EncodedEntry& a, const BPlusTree::EncodedEntry& b) {
                if (a.key != b.key) return a.key < b.key;
                return a.rid < b.rid;
              });
  }

  auto info = std::make_unique<IndexInfo>();
  info->name = index_name;
  info->column = column;
  info->column_idx = col_idx;
  info->tree = std::make_unique<BPlusTree>(
      key_type, fanout, key_type == DataType::kString ? &table.pool() : nullptr);
  AJR_RETURN_IF_ERROR(info->tree->BulkLoadEncoded(std::move(entries)));
  entry->indexes_.push_back(std::move(info));
  return Status::OK();
}

namespace {

ColumnStats ComputeColumnStats(const HeapTable& table, size_t col_idx,
                               const AnalyzeOptions& options) {
  ColumnStats stats;
  std::unordered_map<Value, size_t, ValueHash> counts;
  for (Rid rid = 0; rid < table.num_rows(); ++rid) {
    Value v = table.View(rid).GetValue(col_idx);
    if (!stats.min.has_value() || v < *stats.min) stats.min = v;
    if (!stats.max.has_value() || v > *stats.max) stats.max = v;
    counts[std::move(v)]++;
  }
  stats.ndv = counts.size();
  if (!options.rich || counts.empty()) return stats;

  // Frequent values: top-k by count.
  std::vector<FrequentValue> freq;
  freq.reserve(counts.size());
  for (const auto& [v, c] : counts) freq.push_back({v, c});
  std::sort(freq.begin(), freq.end(), [](const FrequentValue& a, const FrequentValue& b) {
    if (a.count != b.count) return a.count > b.count;
    return a.value < b.value;  // deterministic tie-break
  });
  if (freq.size() > options.top_k) freq.resize(options.top_k);
  stats.frequent = std::move(freq);

  // Equi-depth histogram over the sorted multiset of values.
  std::vector<Value> sorted;
  sorted.reserve(table.num_rows());
  for (Rid rid = 0; rid < table.num_rows(); ++rid) {
    sorted.push_back(table.View(rid).GetValue(col_idx));
  }
  std::sort(sorted.begin(), sorted.end());
  size_t buckets = std::min(options.histogram_buckets, sorted.size());
  if (buckets > 0) {
    EquiDepthHistogram hist;
    hist.rows = sorted.size();
    hist.bounds.push_back(sorted.front());
    for (size_t b = 1; b < buckets; ++b) {
      size_t pos = b * sorted.size() / buckets;
      hist.bounds.push_back(sorted[pos]);
    }
    hist.bounds.push_back(sorted.back());
    stats.histogram = std::move(hist);
  }
  return stats;
}

}  // namespace

Status Catalog::Analyze(const std::string& table_name, const AnalyzeOptions& options) {
  AJR_ASSIGN_OR_RETURN(TableEntry * entry, GetTable(table_name));
  entry->column_stats_.clear();
  const Schema& schema = entry->schema();
  for (size_t i = 0; i < schema.num_columns(); ++i) {
    entry->column_stats_[schema.column(i).name] =
        ComputeColumnStats(entry->table(), i, options);
  }
  return Status::OK();
}

Status Catalog::AnalyzeAll(const AnalyzeOptions& options) {
  for (const auto& [name, entry] : tables_) {
    AJR_RETURN_IF_ERROR(Analyze(name, options));
  }
  return Status::OK();
}

std::vector<std::string> Catalog::TableNames() const {
  std::vector<std::string> names;
  names.reserve(tables_.size());
  for (const auto& [name, entry] : tables_) names.push_back(name);
  std::sort(names.begin(), names.end());
  return names;
}

double EquiDepthHistogram::EstimateFractionLe(const Value& v) const {
  if (bounds.size() < 2 || rows == 0) return 0.5;
  if (v < bounds.front()) return 0.0;
  if (v >= bounds.back()) return 1.0;
  size_t buckets = bounds.size() - 1;
  // Find the bucket containing v.
  for (size_t b = 0; b < buckets; ++b) {
    if (v >= bounds[b] && v < bounds[b + 1]) {
      double base = static_cast<double>(b) / buckets;
      double within = 0.5;  // default: half the bucket
      // Linear interpolation for numeric keys with distinct bounds.
      DataType t = bounds[b].type();
      if ((t == DataType::kInt64 || t == DataType::kDouble) &&
          bounds[b + 1].AsNumeric() > bounds[b].AsNumeric()) {
        within = (v.AsNumeric() - bounds[b].AsNumeric()) /
                 (bounds[b + 1].AsNumeric() - bounds[b].AsNumeric());
      }
      return base + within / buckets;
    }
  }
  return 1.0;
}

}  // namespace ajr
