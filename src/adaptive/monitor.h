// Run-time monitors (Sec 4.3).
//
// Every leg and every join edge carries sums over a sliding "history
// window" of the latest w observations (Sec 4.3.5). From them the run-time
// derives the quantities the cost model needs:
//
//   S_JP (Eq 7/8)   — per-edge join-predicate selectivity
//   S_LPR (Eq 6)    — combined residual local selectivity
//   JC (Eq 11)      — join cardinality = outgoing / incoming
//   PC              — measured work units per incoming row
//
// Each estimate is the simple window average sum(num) / sum(den). The
// paper also allows a weighted average (Sec 4.3.5); no workload uses one.

#pragma once

#include <algorithm>
#include <array>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace ajr {

/// A sliding window over observations of N summed components. Each
/// monitor below is one window: one Record() per observation, estimates as
/// ratios of two components' window sums.
///
/// Record() sits on the executor's per-row hot path, so observations are
/// batched: `batch` consecutive Record() calls are accumulated into plain
/// sums and flushed into the ring as ONE slot. The ring then holds
/// ceil(capacity / batch) slots, spanning the same `capacity` raw
/// observations the paper's "history window w" describes.
template <size_t N>
class WindowSums {
 public:
  using Values = std::array<double, N>;

  /// Observations since the previous TakeDelta(): the unit a parallel
  /// worker folds into the coordinator's merged monitor.
  struct Delta {
    Values sums{};
    uint64_t observations = 0;
    bool empty() const { return observations == 0; }
  };

  explicit WindowSums(size_t capacity)
      : batch_(capacity <= 32 ? 1 : capacity / 32),
        slots_((std::max<size_t>(capacity, 1) + batch_ - 1) / batch_) {}

  /// Adds one observation.
  void Record(const Values& v) {
    for (size_t i = 0; i < N; ++i) {
      pending_[i] += v[i];
      lifetime_[i] += v[i];
    }
    ++observations_;
    if (++pending_count_ >= batch_) Flush();
  }

  /// Component `i` summed over the window (stored slots plus the pending
  /// partial batch).
  double Sum(size_t i) const { return sums_[i] + pending_[i]; }

  /// Component `i` summed over every observation since construction
  /// (never evicted).
  double lifetime(size_t i) const { return lifetime_[i]; }

  /// Observations since construction, absorbed ones included.
  uint64_t observations() const { return observations_; }

  /// Window sum(num) / sum(den); `fallback` while sum(den) carries no mass.
  double Estimate(size_t num, size_t den, double fallback) const {
    const double den_total = Sum(den);
    if (den_total <= 0) return fallback;
    return Sum(num) / den_total;
  }

  /// Returns everything recorded since the last TakeDelta() and advances
  /// the cursor. Lifetime sums are never evicted, so deltas are exact even
  /// after the window forgot the observations.
  Delta TakeDelta() {
    Delta d;
    for (size_t i = 0; i < N; ++i) {
      d.sums[i] = lifetime_[i] - taken_.sums[i];
      taken_.sums[i] += d.sums[i];
    }
    d.observations = observations_ - taken_.observations;
    taken_.observations = observations_;
    return d;
  }

  /// Folds a worker's delta into this (coordinator-side) window as ONE
  /// slot, whatever the delta's size: the merged window slides per fold and
  /// spans the last ring-capacity folds, the parallel analogue of the
  /// paper's history window w. An empty delta stores nothing. A window
  /// either records or absorbs, never both, so no partial batch is pending.
  void Absorb(const Delta& d) {
    if (d.empty()) return;
    assert(pending_count_ == 0);
    Store(d.sums);
    for (size_t i = 0; i < N; ++i) lifetime_[i] += d.sums[i];
    observations_ += d.observations;
  }

 private:
  /// Stores the pending batch, if any, as one slot.
  void Flush() {
    if (pending_count_ == 0) return;
    Store(pending_);
    pending_ = {};
    pending_count_ = 0;
  }
  /// Appends one slot to the ring, evicting the oldest once it is full.
  void Store(const Values& slot);

  size_t batch_;
  size_t slots_;  ///< ring capacity: ceil(capacity / batch)
  Values pending_{};
  size_t pending_count_ = 0;
  Values lifetime_{};
  uint64_t observations_ = 0;
  Delta taken_;  ///< lifetime sums already handed out via TakeDelta
  // Fixed-size ring buffer of flushed batches: no allocation churn once the
  // buffer reaches capacity.
  std::vector<Values> ring_;
  size_t head_ = 0;  ///< index of the oldest slot once the ring is full
  Values sums_{};    ///< per-component sums over the ring
};

extern template class WindowSums<2>;
extern template class WindowSums<4>;

/// Per-leg monitor for the inner role: one record per incoming row.
class LegMonitor {
 public:
  using Delta = WindowSums<4>::Delta;

  explicit LegMonitor(size_t window = 1000) : window_(window) {}

  /// Records the outcome of probing this leg for one incoming row:
  /// `after_edges` rows survived all join predicates, `out` also survived
  /// local + positional predicates, costing `work` units.
  void RecordIncomingRow(double after_edges, double out, double work) {
    window_.Record({out, 1.0, after_edges, work});
  }

  /// JC estimate (Eq 11); `fallback` until data arrives.
  double Jc(double fallback) const { return window_.Estimate(kOut, kRows, fallback); }
  /// Combined local-predicate selectivity (Eq 6 analogue), Laplace-smoothed
  /// toward `fallback` with kPseudoSamples virtual rows: a 2%-selective
  /// predicate observed over 30 rows reads 0 more often than not, and a
  /// hard zero makes whole candidate plans look free.
  double LocalSel(double fallback) const {
    constexpr double kPseudoSamples = 8.0;
    double den = window_.Sum(kAfterEdges);
    double num = window_.Estimate(kOut, kAfterEdges, fallback) * den;
    return (num + fallback * kPseudoSamples) / (den + kPseudoSamples);
  }
  /// Measured probe cost per incoming row.
  double Pc(double fallback) const { return window_.Estimate(kWork, kRows, fallback); }

  uint64_t incoming_total() const { return window_.observations(); }

  Delta TakeDelta() { return window_.TakeDelta(); }
  void Absorb(const Delta& d) { window_.Absorb(d); }

 private:
  enum : size_t { kOut, kRows, kAfterEdges, kWork };
  WindowSums<4> window_;
};

/// Per-leg monitor for the driving role: residual selectivity of the scan.
class DrivingMonitor {
 public:
  using Delta = WindowSums<2>::Delta;

  explicit DrivingMonitor(size_t window = 1000) : window_(window) {}

  /// One scanned entry, which did or did not survive residual predicates.
  void RecordScannedEntry(bool produced) {
    window_.Record({produced ? 1.0 : 0.0, 1.0});
  }

  /// S_LPR (Eq 6 for the driving leg): produced / scanned.
  double ResidualSel(double fallback) const {
    return window_.Estimate(kProduced, kScanned, fallback);
  }

  uint64_t scanned_total() const { return window_.observations(); }
  uint64_t produced_total() const {
    return static_cast<uint64_t>(window_.lifetime(kProduced));
  }

  Delta TakeDelta() { return window_.TakeDelta(); }
  void Absorb(const Delta& d) { window_.Absorb(d); }

 private:
  enum : size_t { kProduced, kScanned };
  WindowSums<2> window_;
};

/// Sec 4.3.3 estimate selection for one leg's combined local selectivity
/// S_LP, shared by every cost-input assembly in the executor:
///
///   * the monitored inner-role selectivity once the leg has seen at least
///     `min_leg_samples` incoming rows — below the floor a cold monitor
///     (10 samples of a 2% predicate usually read 0) must not override the
///     optimizer and make candidate plans look free;
///   * else Eq 9's composition S_LP = S_LPI (optimizer) * S_LPR (measured)
///     for a leg that has driven;
///   * else the optimizer estimate unchanged.
inline double EffectiveLocalSel(const LegMonitor& inner,
                                const DrivingMonitor& driving,
                                double optimizer_est, double est_slpi,
                                uint64_t min_leg_samples) {
  if (inner.incoming_total() >= min_leg_samples) {
    return inner.LocalSel(optimizer_est);
  }
  if (driving.scanned_total() > 0) {
    return est_slpi * driving.ResidualSel(1.0);
  }
  return optimizer_est;
}

/// Per-edge monitor: S_JP as matching pairs over candidate pairs (Eq 7/8),
/// plus the lifetime probe count (the window's observations).
class EdgeMonitor {
 public:
  using Delta = WindowSums<2>::Delta;

  explicit EdgeMonitor(size_t window = 1000) : window_(window) {}

  /// For a probe through this edge: `pairs` = incoming rows * C(T)
  /// (Eq 7's I1 * C(T)); `matches` = entries fetched. For a residual check:
  /// pairs = rows checked, matches = rows passing (Eq 8).
  void Record(double pairs, double matches) { window_.Record({matches, pairs}); }

  /// S_JP estimate; `fallback` (the optimizer's estimate) until enough
  /// observations accumulated. Laplace-smoothed with two pseudo-probes at
  /// the fallback rate: one zero-match probe must not read as an exact-zero
  /// join selectivity (which would make downstream legs look free).
  double Selectivity(double fallback, double min_pairs = 1.0) const {
    double den = window_.Sum(kPairs);
    if (den < min_pairs) return fallback;
    double num = window_.Estimate(kMatches, kPairs, fallback) * den;
    const uint64_t probes = window_.observations();
    double pseudo_den = 2.0 * den / static_cast<double>(probes == 0 ? 1 : probes);
    return (num + fallback * pseudo_den) / (den + pseudo_den);
  }

  Delta TakeDelta() { return window_.TakeDelta(); }
  void Absorb(const Delta& d) { window_.Absorb(d); }

 private:
  enum : size_t { kMatches, kPairs };
  WindowSums<2> window_;
};

}  // namespace ajr
