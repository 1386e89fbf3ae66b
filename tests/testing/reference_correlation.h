// Reference implementations of antagonist identification (section 4.2),
// kept as test oracles for the production batched engine.
//
// Production scores every co-resident suspect in one victim-major sweep
// (core/correlation.h BatchedAntagonistCorrelation, driven by
// AntagonistIdentifier::AnalyzeBatched). The code here is the simpler,
// slower chain that engine must reproduce bit for bit:
//
//   AlignSeries + AntagonistCorrelation   materialize the aligned pairs,
//                                         then score them (O(|a| log |b|),
//                                         one allocation per suspect)
//   FusedAntagonistCorrelation            the same pairing as a merge-join
//                                         fused with the score, per suspect
//   ReferenceAnalyze                      the per-suspect ranking loop over
//                                         SuspectInputs
//
// correlation_equivalence_test pins each tier to the next; the agent's
// incident-time oracle check (agent_test) pins the production ranking to
// ReferenceAnalyze over the agent's live series.

#ifndef CPI2_TESTS_TESTING_REFERENCE_CORRELATION_H_
#define CPI2_TESTS_TESTING_REFERENCE_CORRELATION_H_

#include <cstddef>
#include <string>
#include <vector>

#include "core/incident.h"
#include "core/params.h"
#include "util/time_series.h"

namespace cpi2 {

// The monotone nearest-match advance. `*cursor` is the caller-held position
// (start at 0); for non-decreasing query timestamps it advances to the index
// the front-to-back NearestValue scan would pick (minimum distance, latest
// point wins ties) and returns true when that point is within `tolerance`.
// CachedNearestCursor (util/time_series.h) must make the same decision for
// every query. `series` must be non-empty.
inline bool SeekNearestAdvance(const TimeSeries& series, MicroTime timestamp,
                               MicroTime tolerance, size_t* cursor) {
  const size_t size = series.size();
  size_t next = *cursor;
  MicroTime current = TimestampDistance(series[next].timestamp, timestamp);
  while (next + 1 < size) {
    const MicroTime candidate = TimestampDistance(series[next + 1].timestamp, timestamp);
    if (candidate > current) {
      break;
    }
    current = candidate;
    ++next;
  }
  *cursor = next;
  return current <= tolerance;
}

// Two-pointer nearest-match cursor for merge-join alignment: the per-series
// object wrapper around SeekNearestAdvance.
class NearestCursor {
 public:
  explicit NearestCursor(const TimeSeries& series) : series_(&series) {}

  // Positions the cursor on the nearest point to `timestamp` and stores its
  // index in `*index`. Returns true when that point is within `tolerance`.
  // Query timestamps must be non-decreasing across calls.
  bool Seek(MicroTime timestamp, MicroTime tolerance, size_t* index) {
    if (series_->empty()) {
      return false;
    }
    const bool hit = SeekNearestAdvance(*series_, timestamp, tolerance, &next_);
    *index = next_;
    return hit;
  }

 private:
  const TimeSeries* series_;
  size_t next_ = 0;
};

// A time-aligned pair of samples from two series.
struct AlignedPair {
  MicroTime timestamp = 0;
  double a = 0.0;
  double b = 0.0;
};

// Aligns two series over [begin, end): for each point of `a` in the window,
// finds the nearest point of `b` within `tolerance` (TimeSeries::NearestValue);
// pairs without a match are skipped.
std::vector<AlignedPair> AlignSeries(const TimeSeries& a, const TimeSeries& b, MicroTime begin,
                                     MicroTime end, MicroTime tolerance);

// The paper's score over pre-aligned (victim CPI, suspect usage) pairs:
// pair.a is the victim's CPI, pair.b the suspect's usage, normalized
// internally. Returns 0 for an empty window or an all-idle suspect.
double AntagonistCorrelation(const std::vector<AlignedPair>& pairs, double cpi_threshold);

// AlignSeries + AntagonistCorrelation as one merge-join sweep: aligns victim
// CPI points in [begin, end) against the nearest usage point within
// `tolerance` and scores them. `*aligned_pairs` reports how many points
// paired up (zero means the suspect had no overlapping data).
double FusedAntagonistCorrelation(const TimeSeries& victim_cpi, const TimeSeries& usage,
                                  MicroTime begin, MicroTime end, MicroTime tolerance,
                                  double cpi_threshold, size_t* aligned_pairs);

// One suspect of a per-suspect analysis, names copied in.
struct SuspectInput {
  std::string task;
  std::string jobname;
  WorkloadClass workload_class = WorkloadClass::kBatch;
  JobPriority priority = JobPriority::kNonProduction;
  // Suspect's CPU-usage samples; nullptr is skipped.
  const TimeSeries* usage = nullptr;
};

// Which per-suspect kernel ReferenceAnalyze scores with. Both give the same
// doubles; kAlignSeries is the slower, more obviously correct one.
enum class ReferenceKernel { kFused, kAlignSeries };

// The per-suspect identification loop: correlates every suspect against the
// victim's CPI over [now - params.correlation_window, now] and returns all
// suspects with at least one aligned sample, ranked by correlation (highest
// first, ties by ascending task id). AnalyzeBatched must return the same
// ranking with bit-identical correlations.
std::vector<Suspect> ReferenceAnalyze(const Cpi2Params& params, const TimeSeries& victim_cpi,
                                      double cpi_threshold,
                                      const std::vector<SuspectInput>& suspects, MicroTime now,
                                      ReferenceKernel kernel = ReferenceKernel::kFused);

}  // namespace cpi2

#endif  // CPI2_TESTS_TESTING_REFERENCE_CORRELATION_H_
