#include "common/metrics.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "exec/pipeline_executor.h"
#include "exec/probe_cache_shared.h"
#include "optimize/planner.h"
#include "runtime/parallel_executor.h"
#include "runtime/shared_scan.h"
#include "workload/dmv.h"
#include "workload/templates.h"

namespace ajr {
namespace {

TEST(CounterTest, AddAndReset) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.Add();
  c.Add(41);
  EXPECT_EQ(c.value(), 42u);
  c.Reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(CounterTest, ConcurrentAddsAreLossless) {
  Counter c;
  constexpr int kThreads = 8;
  constexpr uint64_t kPerThread = 50000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c] {
      for (uint64_t i = 0; i < kPerThread; ++i) c.Add();
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(c.value(), kThreads * kPerThread);
}

TEST(HistogramTest, EmptyHistogram) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.sum(), 0u);
  EXPECT_EQ(h.max(), 0u);
  EXPECT_DOUBLE_EQ(h.mean(), 0.0);
  EXPECT_DOUBLE_EQ(h.Quantile(0.5), 0.0);
}

TEST(HistogramTest, BasicAccounting) {
  Histogram h;
  for (uint64_t v : {10u, 20u, 30u, 40u}) h.Record(v);
  EXPECT_EQ(h.count(), 4u);
  EXPECT_EQ(h.sum(), 100u);
  EXPECT_EQ(h.min(), 10u);
  EXPECT_EQ(h.max(), 40u);
  EXPECT_DOUBLE_EQ(h.mean(), 25.0);
}

TEST(HistogramTest, QuantileWithinBucketError) {
  // Log2 octaves with 8 linear sub-buckets bound the relative quantile
  // error at 12.5%. Check against exact order statistics of 1..1000.
  Histogram h;
  for (uint64_t v = 1; v <= 1000; ++v) h.Record(v);
  for (double q : {0.10, 0.50, 0.95, 0.99}) {
    double exact = q * 1000.0;
    double got = h.Quantile(q);
    EXPECT_NEAR(got, exact, exact * 0.125 + 1.0) << "q=" << q;
  }
}

TEST(HistogramTest, QuantilesClampedToObservedRange) {
  Histogram h;
  h.Record(100);
  h.Record(200);
  EXPECT_GE(h.Quantile(0.0), 100.0);
  EXPECT_LE(h.Quantile(1.0), 200.0);
}

TEST(HistogramTest, SingleSampleAllQuantilesEqual) {
  Histogram h;
  h.Record(777);
  EXPECT_DOUBLE_EQ(h.Quantile(0.01), 777.0);
  EXPECT_DOUBLE_EQ(h.Quantile(0.50), 777.0);
  EXPECT_DOUBLE_EQ(h.Quantile(0.99), 777.0);
}

TEST(HistogramTest, HandlesExtremeSamples) {
  Histogram h;
  h.Record(0);
  h.Record(UINT64_MAX);
  EXPECT_EQ(h.count(), 2u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), UINT64_MAX);
}

TEST(HistogramTest, Reset) {
  Histogram h;
  h.Record(5);
  h.Reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.sum(), 0u);
  EXPECT_DOUBLE_EQ(h.Quantile(0.5), 0.0);
}

TEST(MetricsRegistryTest, GetCounterReturnsStablePointer) {
  MetricsRegistry reg;
  Counter* a = reg.GetCounter("engine.test");
  Counter* b = reg.GetCounter("engine.test");
  EXPECT_EQ(a, b);
  a->Add(3);
  EXPECT_EQ(reg.GetCounter("engine.test")->value(), 3u);
}

TEST(MetricsRegistryTest, FindDoesNotCreate) {
  MetricsRegistry reg;
  EXPECT_EQ(reg.FindCounter("absent"), nullptr);
  EXPECT_EQ(reg.FindHistogram("absent"), nullptr);
  reg.GetCounter("present");
  reg.GetHistogram("present_h");
  EXPECT_NE(reg.FindCounter("present"), nullptr);
  EXPECT_NE(reg.FindHistogram("present_h"), nullptr);
}

TEST(MetricsRegistryTest, SnapshotListsMetricsSortedByName) {
  MetricsRegistry reg;
  reg.GetCounter("b.second")->Add(2);
  reg.GetCounter("a.first")->Add(1);
  reg.GetHistogram("c.lat_us")->Record(100);
  std::string snap = reg.Snapshot();
  size_t pa = snap.find("a.first 1");
  size_t pb = snap.find("b.second 2");
  size_t pc = snap.find("c.lat_us count=1");
  ASSERT_NE(pa, std::string::npos) << snap;
  ASSERT_NE(pb, std::string::npos) << snap;
  ASSERT_NE(pc, std::string::npos) << snap;
  EXPECT_LT(pa, pb);
}

TEST(MetricsRegistryTest, ResetAllKeepsRegistrations) {
  MetricsRegistry reg;
  Counter* c = reg.GetCounter("x");
  Histogram* h = reg.GetHistogram("y");
  c->Add(9);
  h->Record(9);
  reg.ResetAll();
  EXPECT_EQ(c->value(), 0u);
  EXPECT_EQ(h->count(), 0u);
  EXPECT_EQ(reg.FindCounter("x"), c);  // registration survives
}

TEST(MetricsRegistryTest, GlobalIsASingleton) {
  EXPECT_EQ(&MetricsRegistry::Global(), &MetricsRegistry::Global());
}

TEST(MetricsRegistryTest, ExecutorExportsProbeCounters) {
  // An executor handed a registry and a shared probe cache must flush its
  // shared-cache stats into the exec.probe_cache_shared_* counters; without
  // set_metrics it must not touch the global registry.
  Catalog catalog;
  DmvConfig config;
  config.num_owners = 500;
  ASSERT_TRUE(GenerateDmv(&catalog, config).ok());
  Planner planner(&catalog);
  auto plan = planner.Plan(DmvQueryGenerator::Example1());
  ASSERT_TRUE(plan.ok()) << plan.status();

  MetricsRegistry reg;
  SharedProbeCache cache;
  PipelineExecutor exec(plan->get());
  exec.set_metrics(&reg);
  exec.set_shared_cache(&cache);
  auto stats = exec.Execute(nullptr);
  ASSERT_TRUE(stats.ok()) << stats.status();

  for (const char* name :
       {"exec.probe_cache_shared_hits", "exec.probe_cache_shared_misses",
        "exec.probe_cache_shared_stripe_conflicts"}) {
    ASSERT_NE(reg.FindCounter(name), nullptr) << name;
  }
  EXPECT_EQ(reg.FindCounter("exec.probe_cache_shared_hits")->value(),
            stats->probe_cache_shared_hits);
  EXPECT_EQ(reg.FindCounter("exec.probe_cache_shared_misses")->value(),
            stats->probe_cache_shared_misses);
  EXPECT_EQ(reg.FindCounter("exec.probe_cache_shared_stripe_conflicts")->value(),
            stats->probe_cache_shared_conflicts);
  EXPECT_GT(stats->probe_cache_shared_misses, 0u);
  // The batching and memo counters are gone for good.
  EXPECT_EQ(reg.FindCounter("exec.probe_batches"), nullptr);
  EXPECT_EQ(reg.FindCounter("exec.probe_cache_hits"), nullptr);

  // A second executor accumulates into the same counters.
  auto plan2 = planner.Plan(DmvQueryGenerator::Example2());
  ASSERT_TRUE(plan2.ok());
  PipelineExecutor exec2(plan2->get());
  exec2.set_metrics(&reg);
  exec2.set_shared_cache(&cache);
  auto stats2 = exec2.Execute(nullptr);
  ASSERT_TRUE(stats2.ok());
  EXPECT_EQ(reg.FindCounter("exec.probe_cache_shared_misses")->value(),
            stats->probe_cache_shared_misses + stats2->probe_cache_shared_misses);
}

TEST(MetricsRegistryTest, ExecutorExportsPolicyCounters) {
  // The executor flushes the AdaptationPolicy's decision accounting into
  // the exec.policy_* counters next to the probe flush: one counter per
  // PolicyStats field, each equal to the ExecStats copy of that field.
  Catalog catalog;
  DmvConfig config;
  config.num_owners = 500;
  ASSERT_TRUE(GenerateDmv(&catalog, config).ok());
  Planner planner(&catalog);
  auto plan = planner.Plan(DmvQueryGenerator::Example1());
  ASSERT_TRUE(plan.ok()) << plan.status();

  MetricsRegistry reg;
  PipelineExecutor exec(plan->get());
  exec.set_metrics(&reg);
  auto stats = exec.Execute(nullptr);
  ASSERT_TRUE(stats.ok()) << stats.status();

  for (const char* name :
       {"exec.policy_decisions", "exec.policy_reorders", "exec.policy_switches",
        "exec.policy_regret_x1000"}) {
    ASSERT_NE(reg.FindCounter(name), nullptr) << name;
  }
  EXPECT_EQ(reg.FindCounter("exec.policy_decisions")->value(),
            stats->policy_decisions);
  EXPECT_EQ(reg.FindCounter("exec.policy_reorders")->value(),
            stats->policy_reorders);
  EXPECT_EQ(reg.FindCounter("exec.policy_switches")->value(),
            stats->policy_switches);
  EXPECT_EQ(reg.FindCounter("exec.policy_regret_x1000")->value(),
            stats->policy_regret_x1000);
  // The default (rank) policy is consulted at every depleted-state check,
  // so a query that adapted must have recorded decisions.
  EXPECT_EQ(stats->policy_decisions,
            stats->inner_checks + stats->driving_checks);
  // Rank policy reports no regret: it never explores.
  EXPECT_EQ(stats->policy_regret_x1000, 0u);
}

TEST(MetricsRegistryTest, ParallelExecutorExportsSharingCounters) {
  // Two runs of one query against the same SharedScanRegistry and
  // SharedProbeCache: the warm run attaches to the retained pass (a full
  // physical pass saved) and hits the shared cache, and the executor must
  // flush both into the exec.shared_scan_* / exec.probe_cache_shared_*
  // counters, each equal to the cumulative ExecStats totals.
  Catalog catalog;
  DmvConfig config;
  config.num_owners = 500;
  ASSERT_TRUE(GenerateDmv(&catalog, config).ok());
  Planner planner(&catalog);
  auto plan = planner.Plan(DmvQueryGenerator::Example1());
  ASSERT_TRUE(plan.ok()) << plan.status();

  MetricsRegistry reg;
  SharedScanRegistry scan_registry;
  SharedProbeCache shared_cache;
  ParallelExecOptions popts;
  popts.dop = 1;
  popts.force_parallel = true;  // one worker: deterministic morsel order
  popts.morsel_size = 64;
  popts.scan_registry = &scan_registry;
  popts.shared_cache = &shared_cache;

  ExecStats total;
  for (int run = 0; run < 2; ++run) {
    ParallelPipelineExecutor exec(plan->get(), AdaptiveOptions{}, popts);
    exec.set_metrics(&reg);
    auto stats = exec.Execute(nullptr);
    ASSERT_TRUE(stats.ok()) << stats.status();
    total.shared_scan_attaches += stats->shared_scan_attaches;
    total.shared_scan_passes_saved += stats->shared_scan_passes_saved;
    total.probe_cache_shared_hits += stats->probe_cache_shared_hits;
    total.probe_cache_shared_misses += stats->probe_cache_shared_misses;
    total.probe_cache_shared_conflicts += stats->probe_cache_shared_conflicts;
  }

  for (const char* name :
       {"exec.shared_scan_attaches", "exec.shared_scan_passes_saved",
        "exec.shared_scan_morsels_produced", "exec.shared_scan_morsels_consumed",
        "exec.probe_cache_shared_hits", "exec.probe_cache_shared_misses",
        "exec.probe_cache_shared_stripe_conflicts"}) {
    ASSERT_NE(reg.FindCounter(name), nullptr) << name;
  }
  EXPECT_EQ(reg.FindCounter("exec.shared_scan_attaches")->value(),
            total.shared_scan_attaches);
  EXPECT_EQ(reg.FindCounter("exec.shared_scan_passes_saved")->value(),
            total.shared_scan_passes_saved);
  EXPECT_EQ(reg.FindCounter("exec.probe_cache_shared_hits")->value(),
            total.probe_cache_shared_hits);
  EXPECT_EQ(reg.FindCounter("exec.probe_cache_shared_misses")->value(),
            total.probe_cache_shared_misses);
  EXPECT_EQ(reg.FindCounter("exec.probe_cache_shared_stripe_conflicts")->value(),
            total.probe_cache_shared_conflicts);
  // The warm run re-attached (one attach per promoted leg of run 2) and
  // replayed the retained pass without a physical scan.
  EXPECT_GT(total.shared_scan_attaches, 0u);
  EXPECT_GT(total.shared_scan_passes_saved, 0u);
  EXPECT_GT(total.probe_cache_shared_hits, 0u);
  // Single-threaded runs must never see stripe-lock contention.
  EXPECT_EQ(total.probe_cache_shared_conflicts, 0u);
}

TEST(MetricsRegistryTest, ConcurrentGetAndRecord) {
  MetricsRegistry reg;
  constexpr int kThreads = 8;
  constexpr uint64_t kPerThread = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&reg] {
      // Racing create-on-first-use against recording through the result.
      Counter* c = reg.GetCounter("shared.counter");
      Histogram* h = reg.GetHistogram("shared.hist");
      for (uint64_t i = 0; i < kPerThread; ++i) {
        c->Add();
        h->Record(i + 1);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(reg.FindCounter("shared.counter")->value(), kThreads * kPerThread);
  EXPECT_EQ(reg.FindHistogram("shared.hist")->count(), kThreads * kPerThread);
}

}  // namespace
}  // namespace ajr
