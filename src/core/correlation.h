// The paper's antagonist-correlation score (section 4.2).
//
// Given time-aligned samples of a victim's CPI {c_i} and a suspect's CPU
// usage {u_i} (normalized so sum u_i = 1) over a window, and the victim's
// abnormal-CPI threshold c_thr:
//
//   corr = sum over i of:
//     u_i * (1 - c_thr / c_i)   when c_i > c_thr   (usage during bad CPI)
//     u_i * (c_i / c_thr - 1)   when c_i < c_thr   (usage during good CPI)
//
// The result lies in [-1, 1]: usage spikes coinciding with victim pain push
// it up; usage during healthy victim periods pushes it down. This is a
// deliberately simple passive score: no throttle-probing of innocents.
//
// BatchedAntagonistCorrelation scores one victim against MANY suspect
// series: ONE pass over the victim series snapshots the correlation window
// into dense scratch columns — timestamps plus each point's precomputed
// score factor — then a per-suspect monotone cursor sweeps each suspect's
// ring a single time, recording the aligned (factor, usage) pairs; the fold
// is a branchless multiply-accumulate. The victim window lookup, ring
// indexing, threshold branches and victim-side division are paid once per
// BATCH, and the fold runs out of L1-resident scratch — this is the
// identification engine's anomaly-storm kernel (DESIGN.md §17).
//
// The per-suspect reference implementations of the same score (AlignSeries
// + AntagonistCorrelation, and the fused merge-join) live in
// tests/testing/reference_correlation.h; correlation_equivalence_test holds
// every batched score bit-identical to them.

#ifndef CPI2_CORE_CORRELATION_H_
#define CPI2_CORE_CORRELATION_H_

#include <cstddef>
#include <vector>

#include "util/time_series.h"

namespace cpi2 {

// Reusable SoA scratch for BatchedAntagonistCorrelation. The per-suspect
// columns (cursor, count, accumulator, score) are indexed by suspect; the
// victim-snapshot and pair-recording buffers are sized by the window length
// and reused for every suspect in the batch. Keep one instance alive across
// calls (the agent does, per DESIGN.md §17) and the steady state allocates
// nothing: an anomaly storm re-scores victim after victim out of the same
// buffers.
class BatchedCorrelationScratch {
 public:
  // Outputs of the last BatchedAntagonistCorrelation call.
  double correlation(size_t suspect) const { return correlation_[suspect]; }
  size_t aligned_pairs(size_t suspect) const { return count_[suspect]; }

 private:
  friend void BatchedAntagonistCorrelation(const TimeSeries&, const TimeSeries* const*,
                                           size_t, MicroTime, MicroTime, MicroTime, double,
                                           BatchedCorrelationScratch*);
  std::vector<size_t> count_;        // per-suspect aligned-pair count
  std::vector<double> correlation_;  // per-suspect final score
  std::vector<MicroTime> victim_ts_;     // dense victim-window snapshot ...
  std::vector<double> victim_factor_;    // ... with the per-point score factor
  std::vector<double> pair_factor_;      // recorded factors, reused per suspect
  std::vector<double> pair_usage_;       // recorded suspect usage, same layout
};

// Scores `n` suspects against one victim: one pass over the victim series
// snapshots the window, then each suspect gets a single-seek sweep + fold.
// usages[s] == nullptr (or an empty/non-overlapping series) yields
// aligned_pairs(s) == 0 — the caller's skip-this-suspect rule, exactly as a
// per-suspect reference path returning zero aligned pairs would. Every
// returned correlation(s) is bit-identical to the reference score of that
// suspect: each sweep visits victim points in the same order, the cursor
// picks the nearest point the reference alignment picks, and the fold
// replays the recorded pairs with the same expressions in the same order.
void BatchedAntagonistCorrelation(const TimeSeries& victim_cpi,
                                  const TimeSeries* const* usages, size_t n, MicroTime begin,
                                  MicroTime end, MicroTime tolerance, double cpi_threshold,
                                  BatchedCorrelationScratch* scratch);

}  // namespace cpi2

#endif  // CPI2_CORE_CORRELATION_H_
