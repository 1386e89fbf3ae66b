// Antagonist identification (section 4.2).
//
// When a victim task turns anomalous, the identifier cross-correlates the
// victim's CPI time series with the CPU-usage series of every co-resident
// suspect over a 10-minute window, using the paper's passive correlation
// score (core/correlation.h). Analyses are rate-limited to one per second
// per machine so that the detector itself never becomes the antagonist.

#ifndef CPI2_CORE_ANTAGONIST_IDENTIFIER_H_
#define CPI2_CORE_ANTAGONIST_IDENTIFIER_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/correlation.h"
#include "core/params.h"
#include "core/types.h"
#include "util/time_series.h"

namespace cpi2 {

class AntagonistIdentifier {
 public:
  explicit AntagonistIdentifier(const Cpi2Params& params) : params_(params) {}

  // One row of a persistent suspect table (DESIGN.md §17). Names are
  // pointers into the owner's stable storage (the agent's task-registry
  // nodes), the series pointer is cached once at registration — building an
  // analysis input costs zero string copies and zero allocations. Rows must
  // be kept sorted by ascending *task; the ranked output's tie-break leans on
  // that.
  struct SuspectRow {
    const std::string* task = nullptr;
    const std::string* jobname = nullptr;
    WorkloadClass workload_class = WorkloadClass::kBatch;
    JobPriority priority = JobPriority::kNonProduction;
    const TimeSeries* usage = nullptr;
  };

  // One entry of a batched analysis result: a reference into the suspect
  // table plus the score. Stays interned — the caller materializes Suspect
  // strings only when an incident is actually built.
  struct RankedRef {
    uint32_t row = 0;
    double correlation = 0.0;
  };

  // Rate limiting: may an analysis run at `now`?
  bool Allowed(MicroTime now) const {
    return last_analysis_ < 0 || now - last_analysis_ >= params_.analysis_interval;
  }

  // Correlates every row of `rows` except `skip_row` (pass kNoSkip to score
  // all) against the victim's CPI over [now - correlation_window, now] in ONE
  // victim-major sweep (BatchedAntagonistCorrelation), ranking the results
  // into *ranked — capacity reused, correlation descending, ties by
  // ascending task id (rows are name-sorted, so the tie-break is an integer
  // compare and the ranking is input-order independent). Suspects with no
  // aligned samples or a null series are skipped; the caller applies the
  // naming threshold. Records the analysis for rate-limiting. An anomaly
  // storm calls this once per victim against the same rows and scratch:
  // zero allocations at steady state. The per-suspect reference ranking
  // (tests/testing/reference_correlation.h ReferenceAnalyze) returns the
  // same suspects with bit-identical correlations.
  static constexpr size_t kNoSkip = static_cast<size_t>(-1);
  void AnalyzeBatched(const TimeSeries& victim_cpi, double cpi_threshold,
                      const std::vector<SuspectRow>& rows, size_t skip_row, MicroTime now,
                      std::vector<RankedRef>* ranked);

  int64_t analyses_run() const { return analyses_run_; }

 private:
  Cpi2Params params_;
  MicroTime last_analysis_ = -1;
  int64_t analyses_run_ = 0;
  // Batched-path scratch, reused across analyses (and across the victims of
  // one storm): the kernel's SoA columns plus the usage-pointer view the
  // kernel consumes (skip_row's slot is nulled instead of compacting, so row
  // indices and kernel indices coincide).
  BatchedCorrelationScratch batch_scratch_;
  std::vector<const TimeSeries*> batch_usages_;
  // Ranking scratch: one branchless sort key per scoring suspect —
  // sign-flipped correlation bits (descending double order) over the row
  // index (ascending tie-break). See AnalyzeBatched for the encoding
  // argument.
  std::vector<unsigned __int128> rank_keys_;
};

}  // namespace cpi2

#endif  // CPI2_CORE_ANTAGONIST_IDENTIFIER_H_
