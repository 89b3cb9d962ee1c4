#include "catalog/catalog.h"

#include <algorithm>
#include <array>
#include <bit>
#include <type_traits>
#include <utility>

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
  auto entry = std::make_unique<TableEntry>(name, std::move(schema), pool_.get());
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

namespace {

using EncodedEntry = BPlusTree::EncodedEntry;

// Set-up sorts one of two entry kinds: ANALYZE a bare key per row, an index
// build a (key, RID) entry per row. Both are sorted by key alone.
uint64_t& KeyOf(uint64_t& key) { return key; }
uint64_t& KeyOf(EncodedEntry& e) { return e.key; }

/// Stable LSD radix sort of data[0, n) by the key bytes set in `varying`,
/// ping-ponging through `buffer` (n entries).
template <typename Entry>
void LsdSort(Entry* data, Entry* buffer, size_t n, uint64_t varying) {
  Entry* from = data;
  Entry* to = buffer;
  for (unsigned shift = 0; shift < 64; shift += 8) {
    if (((varying >> shift) & 0xff) == 0) continue;
    std::array<size_t, 256> offsets{};
    for (size_t i = 0; i < n; ++i) ++offsets[(KeyOf(from[i]) >> shift) & 0xff];
    size_t start = 0;
    for (size_t& offset : offsets) start += std::exchange(offset, start);
    for (size_t i = 0; i < n; ++i) to[offsets[(KeyOf(from[i]) >> shift) & 0xff]++] = from[i];
    std::swap(from, to);
  }
  if (from != data) std::copy(from, from + n, data);
}

/// The column's cells sorted by (key, RID), keys in the order encoding a
/// BPlusTree stores (string ids are byte-ordered once the pool is sealed).
///
/// The sort is a stable radix sort that skips key bits equal in every key.
/// A first pass copies the column in RID order, which is the result when
/// the keys are already in order. Otherwise a counting pass on the top eight
/// varying bits scatters the rows, in RID order, from the table into their
/// buckets of the result, and an LSD sort on the lower varying bytes orders
/// each bucket. Scratch space is one bucket, not the column.
template <typename Entry>
std::vector<Entry> SortedColumn(const HeapTable& table, size_t col_idx) {
  const DataType type = table.layout().type(col_idx);
  const size_t n = table.num_rows();
  auto key_at = [&](Rid rid) { return OrderEncodeCell(table.View(rid).raw(col_idx), type); };

  auto entry = [](uint64_t key, Rid rid) {
    if constexpr (std::is_same_v<Entry, EncodedEntry>) {
      return EncodedEntry{key, rid};
    } else {
      return key;
    }
  };

  std::vector<Entry> sorted(n);
  uint64_t varying = 0;
  bool in_order = true;
  for (Rid rid = 0; rid < n; ++rid) {
    const uint64_t key = key_at(rid);
    sorted[rid] = entry(key, rid);
    varying |= key ^ KeyOf(sorted[0]);
    in_order &= rid == 0 || KeyOf(sorted[rid - 1]) <= key;
  }
  if (!in_order) {
    // The bucket digit is key bits [low, low + 8).
    const int low = std::max(0, 63 - std::countl_zero(varying) - 7);
    std::array<size_t, 257> bucket{};  // bucket d is [bucket[d], bucket[d + 1])
    for (Entry& e : sorted) ++bucket[((KeyOf(e) >> low) & 0xff) + 1];
    for (size_t d = 1; d < bucket.size(); ++d) bucket[d] += bucket[d - 1];
    std::array<size_t, 256> next;
    std::copy(bucket.begin(), bucket.end() - 1, next.begin());
    // Scatter from the table again, overwriting the RID-order copy.
    for (Rid rid = 0; rid < n; ++rid) {
      const uint64_t key = key_at(rid);
      sorted[next[(key >> low) & 0xff]++] = entry(key, rid);
    }
    const uint64_t below = varying & ((uint64_t{1} << low) - 1);
    if (below != 0) {
      size_t largest = 0;
      for (size_t d = 0; d < 256; ++d) largest = std::max(largest, bucket[d + 1] - bucket[d]);
      std::vector<Entry> buffer(largest);
      for (size_t d = 0; d < 256; ++d) {
        LsdSort(sorted.data() + bucket[d], buffer.data(), bucket[d + 1] - bucket[d], below);
      }
    }
  }
  return sorted;
}

}  // namespace

Status Catalog::BuildIndex(const std::string& table_name, const std::string& column,
                           const std::string& index_name, size_t fanout) {
  AJR_ASSIGN_OR_RETURN(TableEntry * entry, GetTable(table_name));
  SealStrings();
  if (entry->FindIndexByName(index_name) != nullptr) {
    return Status::AlreadyExists(StrCat("index '", index_name, "' already exists"));
  }
  AJR_ASSIGN_OR_RETURN(size_t col_idx, entry->schema().ColumnIndex(column));

  const HeapTable& table = entry->table();
  DataType key_type = entry->schema().column(col_idx).type;
  auto info = std::make_unique<IndexInfo>();
  info->name = index_name;
  info->column = column;
  info->column_idx = col_idx;
  info->tree = std::make_unique<BPlusTree>(
      key_type, fanout, key_type == DataType::kString ? pool_.get() : nullptr);
  AJR_RETURN_IF_ERROR(info->tree->BulkLoadEncoded(SortedColumn<EncodedEntry>(table, col_idx)));
  entry->indexes_.push_back(std::move(info));
  return Status::OK();
}

namespace {

/// Statistics read off the column's sorted keys: min and max are the ends,
/// and each run of equal keys is one distinct value. A Value is built only
/// for the outputs.
ColumnStats ComputeColumnStats(const HeapTable& table, size_t col_idx,
                               const AnalyzeOptions& options) {
  ColumnStats stats;
  const std::vector<uint64_t> keys = SortedColumn<uint64_t>(table, col_idx);
  const size_t n = keys.size();
  if (n == 0) return stats;
  const DataType type = table.layout().type(col_idx);
  auto value_at = [&](size_t pos) {
    return DecodeCell(OrderDecodeCell(keys[pos], type), type, &table.pool());
  };
  stats.min = value_at(0);
  stats.max = value_at(n - 1);

  // Frequent values are the top-k longest runs, equal counts in value
  // order. `top` is a heap whose front is the weakest run kept.
  struct Run {
    size_t begin;
    size_t count;
  };
  auto stronger = [](const Run& a, const Run& b) {
    return a.count != b.count ? a.count > b.count : a.begin < b.begin;
  };
  const size_t top_k = options.rich ? options.top_k : 0;
  std::vector<Run> top;
  for (size_t i = 0; i < n;) {
    size_t j = i + 1;
    while (j < n && keys[j] == keys[i]) ++j;
    ++stats.ndv;
    const Run run{i, j - i};
    if (top.size() < top_k) {
      top.push_back(run);
      std::push_heap(top.begin(), top.end(), stronger);
    } else if (top_k > 0 && stronger(run, top.front())) {
      std::pop_heap(top.begin(), top.end(), stronger);
      top.back() = run;
      std::push_heap(top.begin(), top.end(), stronger);
    }
    i = j;
  }
  if (!options.rich) return stats;
  std::sort_heap(top.begin(), top.end(), stronger);
  for (const Run& run : top) stats.frequent.push_back({value_at(run.begin), run.count});

  // Equi-depth histogram: the keys at positions b * n / buckets.
  const size_t buckets = std::min(options.histogram_buckets, n);
  if (buckets > 0) {
    EquiDepthHistogram hist;
    hist.rows = n;
    for (size_t b = 0; b < buckets; ++b) hist.bounds.push_back(value_at(b * n / buckets));
    hist.bounds.push_back(value_at(n - 1));
    stats.histogram = std::move(hist);
  }
  return stats;
}

}  // namespace

Status Catalog::Analyze(const std::string& table_name, const AnalyzeOptions& options) {
  AJR_ASSIGN_OR_RETURN(TableEntry * entry, GetTable(table_name));
  SealStrings();
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

void Catalog::SealStrings() {
  if (pool_->sealed()) return;
  const std::vector<uint32_t> new_id = pool_->Seal();
  for (const auto& [name, entry] : tables_) entry->table_.RenumberStrings(new_id);
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
