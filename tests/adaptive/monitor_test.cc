#include "adaptive/monitor.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "common/random.h"

namespace ajr {
namespace {

// RatioWindowTest: one numerator/denominator pair in a WindowSums<2>.
constexpr size_t kNum = 0, kDen = 1;

TEST(RatioWindowTest, EmptyUsesFallback) {
  WindowSums<2> w(10);
  EXPECT_DOUBLE_EQ(w.Estimate(kNum, kDen, 0.25), 0.25);
}

TEST(RatioWindowTest, SimpleMeanOverWindow) {
  WindowSums<2> w(10);
  w.Record({1, 2});
  w.Record({3, 2});
  EXPECT_DOUBLE_EQ(w.Estimate(kNum, kDen, 0), 1.0);  // (1+3)/(2+2)
  EXPECT_DOUBLE_EQ(w.Sum(kDen), 4.0);
}

TEST(RatioWindowTest, EvictsBeyondCapacity) {
  WindowSums<2> w(3);
  w.Record({0, 1});
  w.Record({0, 1});
  w.Record({0, 1});
  w.Record({9, 1});  // evicts the first 0/1
  EXPECT_DOUBLE_EQ(w.Estimate(kNum, kDen, 0), 3.0);  // (0+0+9)/3
}

TEST(RatioWindowTest, WindowForgetsOldRegime) {
  // First 100 observations say 1.0, next 100 say 0.0; window of 50 only
  // remembers the new regime.
  WindowSums<2> w(50);
  for (int i = 0; i < 100; ++i) w.Record({1, 1});
  for (int i = 0; i < 100; ++i) w.Record({0, 1});
  EXPECT_DOUBLE_EQ(w.Estimate(kNum, kDen, 0.5), 0.0);
}

TEST(LegMonitorTest, EstimatesJcLocalSelPc) {
  LegMonitor m(100);
  EXPECT_EQ(m.incoming_total(), 0u);
  EXPECT_DOUBLE_EQ(m.Jc(2.5), 2.5);  // fallback
  // 3 incoming rows: 4,2,0 rows survive edges; 2,1,0 survive local preds.
  m.RecordIncomingRow(4, 2, 100);
  m.RecordIncomingRow(2, 1, 60);
  m.RecordIncomingRow(0, 0, 20);
  EXPECT_DOUBLE_EQ(m.Jc(0), 1.0);  // (2+1+0)/3
  // LocalSel is Laplace-smoothed toward the fallback with 8 pseudo-samples:
  // raw 3/6 becomes (3 + fb*8) / (6 + 8).
  EXPECT_DOUBLE_EQ(m.LocalSel(0), 3.0 / 14);
  EXPECT_DOUBLE_EQ(m.LocalSel(0.5), 0.5);  // smoothing toward 0.5 is neutral
  EXPECT_DOUBLE_EQ(m.Pc(0), 60.0);         // 180/3
  EXPECT_EQ(m.incoming_total(), 3u);
}

TEST(DrivingMonitorTest, ResidualSelectivity) {
  DrivingMonitor m(100);
  EXPECT_DOUBLE_EQ(m.ResidualSel(0.8), 0.8);
  for (int i = 0; i < 10; ++i) m.RecordScannedEntry(i % 4 == 0);
  EXPECT_EQ(m.scanned_total(), 10u);
  EXPECT_EQ(m.produced_total(), 3u);
  EXPECT_DOUBLE_EQ(m.ResidualSel(0), 0.3);
}

TEST(EdgeMonitorTest, SelectivityWithMinPairs) {
  EdgeMonitor m(100);
  EXPECT_DOUBLE_EQ(m.Selectivity(0.01, 8), 0.01);  // no data -> fallback
  m.Record(4, 2);  // 4 candidate pairs, 2 matches
  // Below the min-pairs threshold, keep the optimizer estimate.
  EXPECT_DOUBLE_EQ(m.Selectivity(0.01, 8), 0.01);
  m.Record(6, 1);
  // 10 pairs >= 8 -> trust the (smoothed) measurement. Two pseudo-probes of
  // average mass 5 at the 0.01 fallback rate blend in:
  // (3 + 0.01*10) / (10 + 10) = 0.155.
  EXPECT_DOUBLE_EQ(m.Selectivity(0.01, 8), 0.155);
  // With much more evidence, the measured ratio dominates.
  for (int i = 0; i < 100; ++i) m.Record(6, 1);
  EXPECT_NEAR(m.Selectivity(0.01, 8), 1.0 / 6, 0.01);
}

TEST(MonitorMergeTest, TakeDeltaAbsorbMatchesDirectRecording) {
  // Two workers record disjoint halves of a stream; folding their deltas
  // into a merged monitor must reproduce the single-monitor lifetime
  // ratios (the parallel coordinator's statistics contract). Estimates use
  // windowed observations, so compare against a monitor that saw the same
  // aggregates, not the raw per-row stream.
  LegMonitor w1(100);
  LegMonitor w2(100);
  LegMonitor merged(100);
  w1.RecordIncomingRow(4, 2, 100);
  w1.RecordIncomingRow(2, 1, 60);
  w2.RecordIncomingRow(0, 0, 20);
  w2.RecordIncomingRow(6, 3, 40);
  merged.Absorb(w1.TakeDelta());
  merged.Absorb(w2.TakeDelta());
  EXPECT_EQ(merged.incoming_total(), 4u);
  EXPECT_DOUBLE_EQ(merged.Jc(0), 6.0 / 4);          // (2+1+0+3)/4
  EXPECT_DOUBLE_EQ(merged.Pc(0), 220.0 / 4);        // (100+60+20+40)/4
  // Deltas are exact increments: a second TakeDelta after no new rows is
  // empty and absorbing it changes nothing.
  LegMonitor::Delta empty = w1.TakeDelta();
  EXPECT_TRUE(empty.empty());
  merged.Absorb(empty);
  EXPECT_EQ(merged.incoming_total(), 4u);
  // New observations after a TakeDelta are picked up by the next one.
  w1.RecordIncomingRow(2, 2, 10);
  merged.Absorb(w1.TakeDelta());
  EXPECT_EQ(merged.incoming_total(), 5u);
  EXPECT_DOUBLE_EQ(merged.Jc(0), 8.0 / 5);

  DrivingMonitor d1(100);
  DrivingMonitor dm(100);
  for (int i = 0; i < 10; ++i) d1.RecordScannedEntry(i % 4 == 0);
  dm.Absorb(d1.TakeDelta());
  EXPECT_EQ(dm.scanned_total(), 10u);
  EXPECT_EQ(dm.produced_total(), 3u);
  EXPECT_DOUBLE_EQ(dm.ResidualSel(0), 0.3);

  EdgeMonitor e1(100);
  EdgeMonitor em(100);
  for (int i = 0; i < 101; ++i) e1.Record(6, 1);
  em.Absorb(e1.TakeDelta());
  EXPECT_NEAR(em.Selectivity(0.01, 8), 1.0 / 6, 0.01);
}

class WindowSizeSweep : public ::testing::TestWithParam<size_t> {};

TEST_P(WindowSizeSweep, CapacityIsRespected) {
  WindowSums<2> w(GetParam());
  for (int i = 0; i < 5000; ++i) w.Record({1, 1});
  // Batching rounds the retained span up to whole batches (batch size is
  // ~capacity/32), so the window may hold slightly more than `capacity`
  // raw observations but never less, and never more than two extra batches.
  size_t batch = GetParam() <= 32 ? 1 : GetParam() / 32;
  // Every observation has denominator 1, so Sum(kDen) counts them.
  EXPECT_GE(w.Sum(kDen), GetParam());
  EXPECT_LE(w.Sum(kDen), GetParam() + 2 * batch);
}

INSTANTIATE_TEST_SUITE_P(Sizes, WindowSizeSweep,
                         ::testing::Values(1u, 10u, 100u, 500u, 1000u));

// Batched eviction against brute force. One seeded stream drives one
// monitor of each kind (every step records a probed row, a scanned driving
// entry and an edge observation), well past eviction. The values are
// integers, as the executor's counts and work units are, so prefix sums
// over the raw stream are exact references.
class BatchedEvictionSweep : public ::testing::TestWithParam<size_t> {
 protected:
  static constexpr double kFallback = 0.37;
  static constexpr double kMinPairs = 8;

  struct Sums {
    double out = 0, after_edges = 0, work = 0, produced = 0, pairs = 0, matches = 0;
  };

  struct Monitors {
    explicit Monitors(size_t w) : leg(w), driving(w), edge(w) {}
    LegMonitor leg;
    DrivingMonitor driving;
    EdgeMonitor edge;
  };

  void SetUp() override {
    const size_t w = GetParam();
    batch_ = w <= 32 ? 1 : w / 32;
    slots_ = (w + batch_ - 1) / batch_;
    Rng rng(20070415 + w);
    const size_t n = 12 * w + 2000;
    prefix_.assign(n + 1, Sums());
    for (size_t k = 0; k < n; ++k) {
      Sums o;
      o.after_edges = static_cast<double>(rng.NextUint64(5));
      o.out = static_cast<double>(rng.NextUint64(static_cast<uint64_t>(o.after_edges) + 1));
      o.work = static_cast<double>(3 + rng.NextUint64(40));
      o.produced = rng.NextBool(0.3) ? 1 : 0;
      o.pairs = rng.NextBool(0.5) ? 1 : 5000;
      o.matches = static_cast<double>(rng.NextUint64(o.pairs == 1 ? 2 : 20));
      stream_.push_back(o);
      const Sums& p = prefix_[k];
      prefix_[k + 1] = {p.out + o.out,           p.after_edges + o.after_edges,
                        p.work + o.work,         p.produced + o.produced,
                        p.pairs + o.pairs,       p.matches + o.matches};
    }
  }

  void Record(size_t k, Monitors* m) const {
    const Sums& o = stream_[k];
    m->leg.RecordIncomingRow(o.after_edges, o.out, o.work);
    m->driving.RecordScannedEntry(o.produced > 0);
    m->edge.Record(o.pairs, o.matches);
  }

  /// First observation a per-record window still holds after n records:
  /// the latest `slots_` complete batches plus the pending partial batch.
  size_t PerRecordStart(size_t n) const {
    const size_t full = n / batch_;
    return (full - std::min(full, slots_)) * batch_;
  }

  static void ExpectClose(double got, double want) {
    EXPECT_LE(std::abs(got - want), 1e-12 * std::max(std::abs(got), std::abs(want)))
        << "got " << got << ", want " << want;
  }

  /// `m` has seen observations [0, hi) and its window holds [lo, hi).
  void ExpectMatches(const Monitors& m, size_t lo, size_t hi) const {
    const Sums& a = prefix_[lo];
    const Sums& b = prefix_[hi];
    const double rows = static_cast<double>(hi - lo);
    const double out = b.out - a.out, after_edges = b.after_edges - a.after_edges;
    const double pairs = b.pairs - a.pairs, matches = b.matches - a.matches;
    ExpectClose(m.leg.Jc(kFallback), rows > 0 ? out / rows : kFallback);
    ExpectClose(m.leg.LocalSel(kFallback),
                (out + kFallback * 8) / (after_edges + 8));
    ExpectClose(m.leg.Pc(kFallback), rows > 0 ? (b.work - a.work) / rows : kFallback);
    EXPECT_EQ(m.leg.incoming_total(), hi);
    ExpectClose(m.driving.ResidualSel(kFallback),
                rows > 0 ? (b.produced - a.produced) / rows : kFallback);
    EXPECT_EQ(m.driving.scanned_total(), hi);
    EXPECT_EQ(m.driving.produced_total(), static_cast<uint64_t>(b.produced));
    const double pseudo = 2.0 * pairs / static_cast<double>(std::max<size_t>(hi, 1));
    ExpectClose(m.edge.Selectivity(kFallback, kMinPairs),
                pairs < kMinPairs ? kFallback
                                  : (matches + kFallback * pseudo) / (pairs + pseudo));
  }

  size_t batch_ = 1;
  size_t slots_ = 1;
  std::vector<Sums> stream_;
  std::vector<Sums> prefix_;  ///< prefix_[k] = sums of stream_[0, k)
};

TEST_P(BatchedEvictionSweep, PerRecordWindowsMatchBruteForce) {
  Monitors m(GetParam());
  ExpectMatches(m, 0, 0);
  for (size_t k = 0; k < stream_.size() && !HasFailure(); ++k) {
    Record(k, &m);
    ExpectMatches(m, PerRecordStart(k + 1), k + 1);
  }
}

TEST_P(BatchedEvictionSweep, FoldedWindowsMatchBruteForce) {
  // A worker records the stream and folds it into a merged monitor in
  // chunks of varying size, empty ones included. Each non-empty fold is
  // one slot of the merged window; an empty fold stores nothing.
  const size_t w = GetParam();
  Monitors worker(w), merged(w);
  Rng sizes(w);
  std::vector<size_t> fold_ends;  ///< stream end of every non-empty fold
  size_t k = 0;
  while (k < stream_.size() && !HasFailure()) {
    const size_t size = sizes.NextBool(0.1) ? sizes.NextUint64(w + 1)
                                            : sizes.NextUint64(2 * batch_ + 2);
    const size_t end = std::min(stream_.size(), k + size);
    for (; k < end; ++k) Record(k, &worker);
    merged.leg.Absorb(worker.leg.TakeDelta());
    merged.driving.Absorb(worker.driving.TakeDelta());
    merged.edge.Absorb(worker.edge.TakeDelta());
    if (size > 0) fold_ends.push_back(k);
    const size_t folds = fold_ends.size();
    ExpectMatches(merged, folds > slots_ ? fold_ends[folds - slots_ - 1] : 0, k);
    // TakeDelta leaves the worker's own window as it was.
    ExpectMatches(worker, PerRecordStart(k), k);
  }
  EXPECT_GT(fold_ends.size(), 2 * slots_);  // the merged window evicted
}

INSTANTIATE_TEST_SUITE_P(Windows, BatchedEvictionSweep,
                         ::testing::Values(1u, 4u, 33u, 64u, 1000u));

}  // namespace
}  // namespace ajr
