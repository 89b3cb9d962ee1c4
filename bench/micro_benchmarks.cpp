// Google-benchmark micro-benchmarks for the storage and execution
// substrates: B+-tree bulk load/probe/count and end-to-end pipeline
// execution with and without adaptation.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdlib>

#include "common/random.h"
#include "exec/pipeline_executor.h"
#include "storage/bplus_tree.h"
#include "workload/dmv.h"
#include "workload/templates.h"

namespace ajr {
namespace {

void BM_BPlusTreeBulkLoad(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  std::vector<IndexEntry> entries;
  entries.reserve(n);
  for (int i = 0; i < n; ++i) entries.push_back({Value(int64_t{i}), static_cast<Rid>(i)});
  for (auto _ : state) {
    BPlusTree tree(DataType::kInt64);
    benchmark::DoNotOptimize(tree.BulkLoad(entries).ok());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_BPlusTreeBulkLoad)->Arg(10000)->Arg(100000);

void BM_BPlusTreeProbe(benchmark::State& state) {
  const int n = 100000;
  Rng rng(11);
  std::vector<IndexEntry> entries;
  entries.reserve(n);
  for (int i = 0; i < n; ++i) {
    entries.push_back({Value(rng.NextInt64(0, n / 4)), static_cast<Rid>(i)});
  }
  std::sort(entries.begin(), entries.end());
  BPlusTree tree(DataType::kInt64);
  if (!tree.BulkLoad(std::move(entries)).ok()) std::abort();
  Rng probe_rng(13);
  std::vector<Rid> rids;
  for (auto _ : state) {
    rids.clear();
    tree.Probe(IndexKey::Int64(probe_rng.NextInt64(0, n / 4)), nullptr, &rids);
    benchmark::DoNotOptimize(rids.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BPlusTreeProbe);

void BM_BPlusTreeRangeCount(benchmark::State& state) {
  const int n = 200000;
  std::vector<IndexEntry> entries(n);
  for (int i = 0; i < n; ++i) entries[i] = {Value(int64_t{i}), static_cast<Rid>(i)};
  BPlusTree tree(DataType::kInt64);
  if (!tree.BulkLoad(std::move(entries)).ok()) std::abort();
  Rng rng(17);
  for (auto _ : state) {
    benchmark::DoNotOptimize(tree.CountKeyLess(Value(rng.NextInt64(0, n))));
  }
}
BENCHMARK(BM_BPlusTreeRangeCount);

// Shared DMV fixture for executor benchmarks (built once).
Catalog* DmvCatalog() {
  static Catalog* catalog = [] {
    auto* c = new Catalog();
    DmvConfig config;
    config.num_owners = 20000;
    auto cards = GenerateDmv(c, config);
    if (!cards.ok()) std::abort();
    return c;
  }();
  return catalog;
}

void RunExample1(benchmark::State& state, bool adaptive) {
  Catalog* catalog = DmvCatalog();
  Planner planner(catalog);
  auto plan = planner.Plan(DmvQueryGenerator::Example1());
  if (!plan.ok()) std::abort();
  AdaptiveOptions options;
  options.reorder_inners = adaptive;
  options.reorder_driving = adaptive;
  for (auto _ : state) {
    PipelineExecutor exec(plan->get(), options);
    auto stats = exec.Execute(nullptr);
    benchmark::DoNotOptimize(stats.ok());
  }
}

void BM_ExecuteExample1Static(benchmark::State& state) {
  RunExample1(state, false);
}
BENCHMARK(BM_ExecuteExample1Static);

void BM_ExecuteExample1Adaptive(benchmark::State& state) {
  RunExample1(state, true);
}
BENCHMARK(BM_ExecuteExample1Adaptive);

}  // namespace
}  // namespace ajr

BENCHMARK_MAIN();
