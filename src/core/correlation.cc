#include "core/correlation.h"

namespace cpi2 {

void BatchedAntagonistCorrelation(const TimeSeries& victim_cpi,
                                  const TimeSeries* const* usages, size_t n, MicroTime begin,
                                  MicroTime end, MicroTime tolerance, double cpi_threshold,
                                  BatchedCorrelationScratch* scratch) {
  BatchedCorrelationScratch& s = *scratch;
  s.count_.assign(n, 0);
  s.correlation_.assign(n, 0.0);

  const size_t a_begin = victim_cpi.LowerBound(begin);
  const size_t a_end = victim_cpi.LowerBound(end);
  if (a_begin >= a_end || n == 0) {
    return;  // Empty victim window: every suspect reports zero pairs.
  }
  const size_t window = a_end - a_begin;  // max pairs one suspect can record
  if (s.victim_ts_.size() < window) {
    s.victim_ts_.resize(window);
    s.victim_factor_.resize(window);
    s.pair_factor_.resize(window);
    s.pair_usage_.resize(window);
  }

  // ONE pass over the victim series: snapshot the window's timestamps into a
  // dense scratch column and precompute each point's SCORE FACTOR — the
  // victim-only part of the per-pair term, (1 - thr/c) above threshold,
  // (c/thr - 1) below, 0 at the threshold or for non-positive CPI. The
  // window lookup, the victim's ring indexing, the threshold branches and
  // the thr/c division are all paid once for the whole batch; every
  // suspect's fold below is a branchless multiply-accumulate against these
  // factors. The factor expressions see the exact operands the per-pair
  // expressions of the fused reference path (tests/testing/
  // reference_correlation.h) see, so every product is bit-identical; folding
  // a zero factor adds ±0.0 where the fused path skips the pair, which cannot
  // change the accumulator — it starts at +0.0 and IEEE round-to-nearest
  // addition never produces -0.0 from a non-(-0.0) left operand. A storm
  // re-scoring the same suspects victim after victim pays this snapshot per
  // victim, nothing per suspect.
  for (size_t i = 0; i < window; ++i) {
    const TimePoint& victim_point = victim_cpi[a_begin + i];
    s.victim_ts_[i] = victim_point.timestamp;
    const double cpi = victim_point.value;
    double factor = 0.0;
    if (cpi_threshold > 0.0) {  // non-positive threshold: every fold skips
      if (cpi > cpi_threshold) {
        factor = 1.0 - cpi_threshold / cpi;
      } else if (cpi < cpi_threshold && cpi > 0.0) {
        factor = cpi / cpi_threshold - 1.0;
      }
    }
    s.victim_factor_[i] = factor;
  }

  // Per-suspect sweep: the monotone cursor advances over the suspect's ring
  // ONCE (the fused path seeks twice — normalizer pass, then fold pass),
  // recording each aligned (CPI, usage) pair. The cursor, count and
  // accumulator live in registers through the sweep; count and accumulator
  // land in their SoA columns at the end. The fold runs only after the
  // sweep completes: the normalizer must be whole before any term folds —
  // FP division does not factor out bitwise — and the recorded pairs
  // replace the fused path's second seek pass with a dense replay. Pairs
  // are visited in the same victim-index order, the cursor picks the index
  // SeekNearestAdvance picks for every query (CachedNearestCursor is
  // decision-equivalent — it memoizes ring reads, not comparisons), and the
  // fold multiply-accumulates the same normalized-usage values against the
  // precomputed score factors (see the snapshot comment for why that is
  // term-for-term bit-identical to FusedAntagonistCorrelation's fold), so
  // each suspect's score is bit-identical to a standalone fused call.
  for (size_t suspect = 0; suspect < n; ++suspect) {
    const TimeSeries* usage = usages[suspect];
    if (usage == nullptr || usage->empty()) {
      continue;  // No data: aligned_pairs stays 0, the caller's skip rule.
    }
    // Start the cursor at the last point before the first victim timestamp
    // (one binary search) instead of greedily replaying the whole retained
    // prefix the way a from-zero cursor would. The nearest point to any
    // query >= victim_ts_[0] can never lie earlier, distance from there is
    // unimodal, and latest-wins ties advance identically — so every seek
    // lands on the exact index the fused path's from-zero cursor picks.
    // CachedNearestCursor then keeps the cursor's neighbor timestamps in
    // registers through the sweep: same decisions as SeekNearestAdvance,
    // one ring read per advance instead of three per query.
    size_t start = usage->LowerBound(s.victim_ts_[0]);
    if (start > 0) {
      --start;
    }
    if (start >= usage->size()) {
      start = usage->size() - 1;
    }
    CachedNearestCursor cursor(*usage, start);
    size_t pairs = 0;
    double usage_total = 0.0;
    for (size_t i = 0; i < window; ++i) {
      if (!cursor.Seek(s.victim_ts_[i], tolerance)) {
        continue;
      }
      const double u = (*usage)[cursor.index()].value;
      usage_total += u;
      s.pair_factor_[pairs] = s.victim_factor_[i];
      s.pair_usage_[pairs] = u;
      ++pairs;
    }
    s.count_[suspect] = pairs;
    if (pairs == 0 || cpi_threshold <= 0.0 || usage_total <= 0.0) {
      continue;  // correlation stays 0.0, matching the fused early returns
    }
    double correlation = 0.0;
    for (size_t p = 0; p < pairs; ++p) {
      correlation += (s.pair_usage_[p] / usage_total) * s.pair_factor_[p];
    }
    s.correlation_[suspect] = correlation;
  }
}

}  // namespace cpi2
