// Property tests chaining the identification engine to its reference
// implementations (tests/testing/reference_correlation.h):
//
//   AlignSeries + AntagonistCorrelation == FusedAntagonistCorrelation
//       == BatchedAntagonistCorrelation (the production kernel)
//   ReferenceAnalyze == AntagonistIdentifier::AnalyzeBatched (production)
//
// "Bit-identical" is a hard requirement, not an approximation: every tier
// visits the identical pairs in the identical order with identical per-pair
// arithmetic, which these tests check with EXPECT_EQ on raw doubles over
// randomized series.

#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/antagonist_identifier.h"
#include "core/correlation.h"
#include "tests/testing/reference_correlation.h"
#include "util/string_util.h"
#include "util/time_series.h"

namespace cpi2 {
namespace {

constexpr MicroTime kSecond = kMicrosPerSecond;

struct RandomSeriesOptions {
  MicroTime start = 0;
  MicroTime end = 600 * kSecond;
  MicroTime base_step = 10 * kSecond;
  double gap_probability = 0.2;        // skip a step entirely
  double duplicate_probability = 0.1;  // repeat the previous timestamp
  MicroTime max_jitter = 0;            // uniform jitter added to each step
};

TimeSeries RandomSeries(std::mt19937_64& rng, const RandomSeriesOptions& options,
                        double min_value, double max_value) {
  TimeSeries series;
  std::uniform_real_distribution<double> value(min_value, max_value);
  std::uniform_real_distribution<double> coin(0.0, 1.0);
  MicroTime t = options.start;
  while (t < options.end) {
    if (coin(rng) >= options.gap_probability) {
      MicroTime timestamp = t;
      if (options.max_jitter > 0) {
        timestamp += std::uniform_int_distribution<MicroTime>(0, options.max_jitter)(rng);
      }
      series.Append(timestamp, value(rng));
      while (coin(rng) < options.duplicate_probability) {
        series.Append(timestamp, value(rng));  // same timestamp, new value
      }
    }
    t += options.base_step;
  }
  return series;
}

// Runs both paths over one (victim, usage) pair and requires exact equality
// of the pair count and the correlation double.
void ExpectPathsAgree(const TimeSeries& victim, const TimeSeries& usage, MicroTime begin,
                      MicroTime end, MicroTime tolerance, double threshold) {
  const std::vector<AlignedPair> pairs = AlignSeries(victim, usage, begin, end, tolerance);
  const double legacy = pairs.empty() ? 0.0 : AntagonistCorrelation(pairs, threshold);
  size_t aligned = 0;
  const double fused =
      FusedAntagonistCorrelation(victim, usage, begin, end, tolerance, threshold, &aligned);
  EXPECT_EQ(aligned, pairs.size());
  EXPECT_EQ(fused, legacy);  // exact: not EXPECT_DOUBLE_EQ, not near
}

TEST(CorrelationEquivalenceTest, ThousandRandomSeriesPairs) {
  std::mt19937_64 rng(20260805);
  std::uniform_real_distribution<double> threshold_dist(0.5, 4.0);
  for (int trial = 0; trial < 1000; ++trial) {
    RandomSeriesOptions victim_options;
    victim_options.max_jitter = (trial % 3 == 0) ? 2 * kSecond : 0;
    RandomSeriesOptions usage_options;
    usage_options.base_step = (trial % 2 == 0) ? 10 * kSecond : 7 * kSecond;
    usage_options.gap_probability = (trial % 5 == 0) ? 0.6 : 0.2;
    usage_options.max_jitter = 3 * kSecond;
    // CPI values deliberately include <= 0 (dropped by both paths) and values
    // straddling the threshold.
    const TimeSeries victim = RandomSeries(rng, victim_options, -0.5, 5.0);
    const TimeSeries usage = RandomSeries(rng, usage_options, 0.0, 3.0);
    const double threshold = threshold_dist(rng);
    const MicroTime begin = (trial % 4) * 60 * kSecond;
    const MicroTime end = 600 * kSecond - (trial % 7) * 30 * kSecond;
    const MicroTime tolerance = (trial % 6) * kSecond;  // includes zero
    ExpectPathsAgree(victim, usage, begin, end, tolerance, threshold);
    if (HasFailure()) {
      FAIL() << "diverged at trial " << trial;
    }
  }
}

TEST(CorrelationEquivalenceTest, EdgeShapes) {
  const double threshold = 2.0;
  const MicroTime tolerance = 5 * kSecond;
  TimeSeries empty;
  TimeSeries one;
  one.Append(10 * kSecond, 1.5);
  TimeSeries dense;
  for (int i = 0; i < 100; ++i) {
    dense.Append(i * kSecond, 1.0 + 0.05 * i);
  }
  TimeSeries all_idle;
  for (int i = 0; i < 100; ++i) {
    all_idle.Append(i * kSecond, 0.0);
  }
  TimeSeries duplicates;
  for (int i = 0; i < 20; ++i) {
    duplicates.Append(42 * kSecond, 0.1 * i);
  }

  const TimeSeries* all[] = {&empty, &one, &dense, &all_idle, &duplicates};
  for (const TimeSeries* victim : all) {
    for (const TimeSeries* usage : all) {
      ExpectPathsAgree(*victim, *usage, 0, 100 * kSecond, tolerance, threshold);
      ExpectPathsAgree(*victim, *usage, 0, 100 * kSecond, /*tolerance=*/0, threshold);
      // Inverted and empty windows.
      ExpectPathsAgree(*victim, *usage, 90 * kSecond, 10 * kSecond, tolerance, threshold);
    }
  }
  // Non-positive thresholds short-circuit identically.
  ExpectPathsAgree(dense, dense, 0, 100 * kSecond, tolerance, 0.0);
  ExpectPathsAgree(dense, dense, 0, 100 * kSecond, tolerance, -1.0);
}

TEST(CorrelationEquivalenceTest, BatchedMatchesFusedOnRandomBatches) {
  // The batched one-pass kernel must return, for every suspect in the batch,
  // the exact double a standalone FusedAntagonistCorrelation call returns for
  // that suspect — including null entries, empty series, and suspects with no
  // overlap. Scratch is reused across trials so staleness bugs would surface.
  std::mt19937_64 rng(20260809);
  std::uniform_real_distribution<double> threshold_dist(0.5, 4.0);
  BatchedCorrelationScratch scratch;
  std::vector<TimeSeries> usages;
  std::vector<const TimeSeries*> pointers;
  TimeSeries empty;
  for (int trial = 0; trial < 200; ++trial) {
    RandomSeriesOptions victim_options;
    victim_options.max_jitter = (trial % 3 == 0) ? 2 * kSecond : 0;
    const TimeSeries victim = RandomSeries(rng, victim_options, -0.5, 5.0);
    const size_t n = 1 + trial % 37;  // batch sizes 1..37
    usages.clear();
    usages.reserve(n);  // no reallocation: pointers stay valid
    pointers.clear();
    for (size_t s = 0; s < n; ++s) {
      RandomSeriesOptions usage_options;
      usage_options.base_step = (s % 2 == 0) ? 10 * kSecond : 7 * kSecond;
      usage_options.gap_probability = (s % 5 == 0) ? 0.6 : 0.2;
      usage_options.max_jitter = 3 * kSecond;
      usages.push_back(RandomSeries(rng, usage_options, 0.0, 3.0));
      if (s % 11 == 3) {
        pointers.push_back(nullptr);  // skipped slot, as AnalyzeBatched nulls skip_row
      } else if (s % 13 == 5) {
        pointers.push_back(&empty);
      } else {
        pointers.push_back(&usages.back());
      }
    }
    const double threshold = threshold_dist(rng);
    const MicroTime begin = (trial % 4) * 60 * kSecond;
    const MicroTime end = 600 * kSecond - (trial % 7) * 30 * kSecond;
    const MicroTime tolerance = (trial % 6) * kSecond;
    BatchedAntagonistCorrelation(victim, pointers.data(), pointers.size(), begin, end,
                                 tolerance, threshold, &scratch);
    for (size_t s = 0; s < n; ++s) {
      if (pointers[s] == nullptr) {
        EXPECT_EQ(scratch.aligned_pairs(s), 0u) << "trial " << trial << " suspect " << s;
        continue;
      }
      size_t aligned = 0;
      const double fused = FusedAntagonistCorrelation(victim, *pointers[s], begin, end,
                                                      tolerance, threshold, &aligned);
      EXPECT_EQ(scratch.aligned_pairs(s), aligned) << "trial " << trial << " suspect " << s;
      EXPECT_EQ(scratch.correlation(s), fused) << "trial " << trial << " suspect " << s;
    }
    if (HasFailure()) {
      FAIL() << "diverged at trial " << trial;
    }
  }
}

TEST(CorrelationEquivalenceTest, FullAnalyzeMatchesAcrossPaths) {
  // End-to-end: the production engine's ranking (order, tasks, raw
  // correlation doubles) equals the per-suspect reference ranking over the
  // same suspects, on random tables with a skipped victim row, null series
  // and empty series, with the engine's scratch reused across trials.
  std::mt19937_64 rng(7);
  RandomSeriesOptions options;
  Cpi2Params params;
  params.analysis_interval = 0;
  AntagonistIdentifier identifier(params);
  std::vector<AntagonistIdentifier::RankedRef> ranked;
  const TimeSeries empty;
  size_t compared = 0;
  for (int trial = 0; trial < 50; ++trial) {
    const TimeSeries victim = RandomSeries(rng, options, 0.5, 5.0);
    const int n = 1 + trial % 23;
    std::vector<TimeSeries> usages;
    usages.reserve(static_cast<size_t>(n));  // no reallocation: pointers stay valid
    std::vector<std::string> names;
    names.reserve(static_cast<size_t>(n));
    const std::string job = "job";
    const size_t skip_row =
        trial % 3 == 0 ? AntagonistIdentifier::kNoSkip : static_cast<size_t>(trial % n);
    std::vector<AntagonistIdentifier::SuspectRow> rows;
    std::vector<SuspectInput> inputs;
    for (int i = 0; i < n; ++i) {
      usages.push_back(RandomSeries(rng, options, 0.0, 2.0));
      names.push_back(StrFormat("task.%02d", i));  // rows stay name-sorted
      const TimeSeries* usage = &usages.back();
      if (i % 7 == 3) {
        usage = nullptr;
      } else if (i % 9 == 5) {
        usage = &empty;
      }
      rows.push_back({&names.back(), &job, WorkloadClass::kBatch, JobPriority::kBestEffort,
                      usage});
      if (static_cast<size_t>(i) != skip_row) {
        inputs.push_back({names.back(), job, WorkloadClass::kBatch, JobPriority::kBestEffort,
                          usage});
      }
    }
    const MicroTime now = 600 * kSecond - (trial % 5) * 30 * kSecond;
    const double threshold = 2.0 + 0.1 * (trial % 4);
    identifier.AnalyzeBatched(victim, threshold, rows, skip_row, now, &ranked);
    const std::vector<Suspect> reference =
        ReferenceAnalyze(params, victim, threshold, inputs, now);
    ASSERT_EQ(ranked.size(), reference.size()) << "trial " << trial;
    for (size_t i = 0; i < ranked.size(); ++i) {
      EXPECT_EQ(*rows[ranked[i].row].task, reference[i].task) << "trial " << trial;
      EXPECT_EQ(ranked[i].correlation, reference[i].correlation) << "trial " << trial;
    }
    compared += ranked.size();
  }
  EXPECT_GT(compared, 100u);  // the trials really scored suspects
}

}  // namespace
}  // namespace cpi2
