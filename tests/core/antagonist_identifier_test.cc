#include "core/antagonist_identifier.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "tests/testing/reference_correlation.h"

namespace cpi2 {
namespace {

constexpr MicroTime kMinute = kMicrosPerMinute;

// Victim CPI: healthy for 5 minutes, then in pain for 5 minutes.
TimeSeries PainfulVictim() {
  TimeSeries series;
  for (int i = 0; i < 10; ++i) {
    series.Append(i * kMinute, i < 5 ? 1.0 : 4.0);
  }
  return series;
}

// Usage series that is active only during [from, to) minutes.
TimeSeries ActiveDuring(int from, int to, double level = 2.0) {
  TimeSeries series;
  for (int i = 0; i < 10; ++i) {
    series.Append(i * kMinute, (i >= from && i < to) ? level : 0.0);
  }
  return series;
}

// Runs AnalyzeBatched over `inputs` the way the agent does: rows sorted by
// task name over stable name storage, results materialized as Suspects.
std::vector<Suspect> Rank(AntagonistIdentifier& identifier, const TimeSeries& victim,
                          double cpi_threshold, std::vector<SuspectInput> inputs,
                          MicroTime now) {
  std::sort(inputs.begin(), inputs.end(),
            [](const SuspectInput& a, const SuspectInput& b) { return a.task < b.task; });
  std::vector<AntagonistIdentifier::SuspectRow> rows;
  for (const SuspectInput& input : inputs) {
    rows.push_back({&input.task, &input.jobname, input.workload_class, input.priority,
                    input.usage});
  }
  std::vector<AntagonistIdentifier::RankedRef> ranked;
  identifier.AnalyzeBatched(victim, cpi_threshold, rows, AntagonistIdentifier::kNoSkip, now,
                            &ranked);
  std::vector<Suspect> out;
  for (const AntagonistIdentifier::RankedRef& ref : ranked) {
    const AntagonistIdentifier::SuspectRow& row = rows[ref.row];
    out.push_back(
        {*row.task, *row.jobname, row.workload_class, row.priority, ref.correlation});
  }
  return out;
}

TEST(AntagonistIdentifierTest, RanksCoincidentSuspectFirst) {
  AntagonistIdentifier identifier(Cpi2Params{});
  const TimeSeries victim = PainfulVictim();
  const TimeSeries guilty = ActiveDuring(5, 10);
  const TimeSeries innocent = ActiveDuring(0, 5);
  const TimeSeries constant = ActiveDuring(0, 10);

  std::vector<SuspectInput> inputs;
  inputs.push_back({"guilty.0", "guilty", WorkloadClass::kBatch,
                    JobPriority::kBestEffort, &guilty});
  inputs.push_back({"innocent.0", "innocent", WorkloadClass::kBatch,
                    JobPriority::kBestEffort, &innocent});
  inputs.push_back({"constant.0", "constant", WorkloadClass::kLatencySensitive,
                    JobPriority::kProduction, &constant});

  const auto ranked = Rank(identifier, victim, /*cpi_threshold=*/2.0, inputs,
                           /*now=*/10 * kMinute);
  ASSERT_EQ(ranked.size(), 3u);
  EXPECT_EQ(ranked[0].task, "guilty.0");
  EXPECT_GT(ranked[0].correlation, 0.35);
  EXPECT_EQ(ranked[2].task, "innocent.0");
  EXPECT_LT(ranked[2].correlation, 0.0);
  // Ordering is descending.
  EXPECT_GE(ranked[0].correlation, ranked[1].correlation);
  EXPECT_GE(ranked[1].correlation, ranked[2].correlation);
  // Metadata is carried through.
  EXPECT_EQ(ranked[0].jobname, "guilty");
  EXPECT_EQ(ranked[0].priority, JobPriority::kBestEffort);
}

TEST(AntagonistIdentifierTest, RateLimitsToOnePerInterval) {
  AntagonistIdentifier identifier(Cpi2Params{});
  EXPECT_TRUE(identifier.Allowed(0));
  const TimeSeries victim = PainfulVictim();
  (void)Rank(identifier, victim, 2.0, {}, 10 * kMinute);
  EXPECT_FALSE(identifier.Allowed(10 * kMinute));
  EXPECT_FALSE(identifier.Allowed(10 * kMinute + kMicrosPerSecond / 2));
  EXPECT_TRUE(identifier.Allowed(10 * kMinute + kMicrosPerSecond));
  EXPECT_EQ(identifier.analyses_run(), 1);
}

TEST(AntagonistIdentifierTest, NullUsageSeriesIsSkipped) {
  AntagonistIdentifier identifier(Cpi2Params{});
  const TimeSeries victim = PainfulVictim();
  std::vector<SuspectInput> inputs;
  inputs.push_back({"ghost.0", "ghost", WorkloadClass::kBatch,
                    JobPriority::kBestEffort, nullptr});
  EXPECT_TRUE(Rank(identifier, victim, 2.0, inputs, 10 * kMinute).empty());
}

TEST(AntagonistIdentifierTest, SuspectOutsideWindowIsSkipped) {
  // A suspect with samples only before the correlation window contributes
  // no aligned pairs and is dropped rather than scored.
  Cpi2Params params;
  params.correlation_window = 3 * kMinute;
  AntagonistIdentifier identifier(params);
  const TimeSeries victim = PainfulVictim();
  TimeSeries stale;
  stale.Append(0, 1.0);
  std::vector<SuspectInput> inputs;
  inputs.push_back({"stale.0", "stale", WorkloadClass::kBatch,
                    JobPriority::kBestEffort, &stale});
  EXPECT_TRUE(Rank(identifier, victim, 2.0, inputs, 10 * kMinute).empty());
}

TEST(AntagonistIdentifierTest, EqualCorrelationsBreakTiesByTaskId) {
  // Two suspects with identical usage series score identically; the ranking
  // must fall back to ascending task id regardless of input order, so the
  // capping decision is reproducible.
  AntagonistIdentifier identifier(Cpi2Params{});
  const TimeSeries victim = PainfulVictim();
  const TimeSeries usage_a = ActiveDuring(5, 10);
  const TimeSeries usage_b = ActiveDuring(5, 10);

  std::vector<SuspectInput> inputs;
  inputs.push_back({"zeta.0", "zeta", WorkloadClass::kBatch,
                    JobPriority::kBestEffort, &usage_a});
  inputs.push_back({"alpha.0", "alpha", WorkloadClass::kBatch,
                    JobPriority::kBestEffort, &usage_b});

  auto ranked = Rank(identifier, victim, 2.0, inputs, 10 * kMinute);
  ASSERT_EQ(ranked.size(), 2u);
  EXPECT_EQ(ranked[0].correlation, ranked[1].correlation);
  EXPECT_EQ(ranked[0].task, "alpha.0");
  EXPECT_EQ(ranked[1].task, "zeta.0");

  // Reversed input order produces the same ranking.
  std::swap(inputs[0], inputs[1]);
  AntagonistIdentifier reversed(Cpi2Params{});
  ranked = Rank(reversed, victim, 2.0, inputs, 10 * kMinute);
  ASSERT_EQ(ranked.size(), 2u);
  EXPECT_EQ(ranked[0].task, "alpha.0");
  EXPECT_EQ(ranked[1].task, "zeta.0");
}

TEST(AntagonistIdentifierTest, WindowRestrictsSamples) {
  // With a 5-minute window ending at minute 10, only the painful half of
  // the victim series is seen: a constant suspect now looks guilty.
  Cpi2Params params;
  params.correlation_window = 5 * kMinute;
  AntagonistIdentifier identifier(params);
  const TimeSeries victim = PainfulVictim();
  const TimeSeries constant = ActiveDuring(0, 10);
  std::vector<SuspectInput> inputs;
  inputs.push_back({"constant.0", "constant", WorkloadClass::kBatch,
                    JobPriority::kBestEffort, &constant});
  const auto ranked = Rank(identifier, victim, 2.0, inputs, 10 * kMinute);
  ASSERT_EQ(ranked.size(), 1u);
  EXPECT_GT(ranked[0].correlation, 0.4);
}

// --- batched engine ---------------------------------------------------------

// Builds a name-sorted suspect table over parallel name/usage arrays. The
// arrays must outlive the rows (the rows intern pointers into them), so the
// caller owns them; names must already be in ascending order.
std::vector<AntagonistIdentifier::SuspectRow> MakeRows(
    const std::vector<std::string>& names, const std::vector<std::string>& jobs,
    const std::vector<const TimeSeries*>& usages) {
  std::vector<AntagonistIdentifier::SuspectRow> rows;
  for (size_t i = 0; i < names.size(); ++i) {
    AntagonistIdentifier::SuspectRow row;
    row.task = &names[i];
    row.jobname = &jobs[i];
    row.workload_class = WorkloadClass::kBatch;
    row.priority = JobPriority::kBestEffort;
    row.usage = usages[i];
    rows.push_back(row);
  }
  return rows;
}

TEST(AntagonistIdentifierTest, AnalyzeBatchedMatchesAnalyze) {
  // The batched engine over an interned table returns the same tasks in the
  // same order with bit-identical correlations as the per-suspect reference.
  const TimeSeries victim = PainfulVictim();
  const TimeSeries guilty = ActiveDuring(5, 10);
  const TimeSeries innocent = ActiveDuring(0, 5);
  const TimeSeries constant = ActiveDuring(0, 10);

  const std::vector<std::string> names = {"constant.0", "guilty.0", "innocent.0"};
  const std::vector<std::string> jobs = {"constant", "guilty", "innocent"};
  const auto rows = MakeRows(names, jobs, {&constant, &guilty, &innocent});

  std::vector<SuspectInput> inputs;
  for (const auto& row : rows) {
    inputs.push_back({*row.task, *row.jobname, row.workload_class, row.priority, row.usage});
  }

  AntagonistIdentifier batched(Cpi2Params{});
  std::vector<AntagonistIdentifier::RankedRef> ranked;
  batched.AnalyzeBatched(victim, 2.0, rows, AntagonistIdentifier::kNoSkip, 10 * kMinute,
                         &ranked);
  for (const ReferenceKernel kernel : {ReferenceKernel::kFused, ReferenceKernel::kAlignSeries}) {
    const auto reference =
        ReferenceAnalyze(Cpi2Params{}, victim, 2.0, inputs, 10 * kMinute, kernel);
    ASSERT_EQ(ranked.size(), reference.size());
    for (size_t i = 0; i < ranked.size(); ++i) {
      EXPECT_EQ(*rows[ranked[i].row].task, reference[i].task) << "rank " << i;
      EXPECT_EQ(ranked[i].correlation, reference[i].correlation) << "rank " << i;
    }
  }
  EXPECT_EQ(batched.analyses_run(), 1);
}

TEST(AntagonistIdentifierTest, AnalyzeBatchedSkipsTheSkipRow) {
  // skip_row excludes the victim's own row; the remaining ranking is what a
  // table without that row would produce.
  const TimeSeries victim = PainfulVictim();
  const TimeSeries guilty = ActiveDuring(5, 10);
  const TimeSeries self = ActiveDuring(0, 10);

  const std::vector<std::string> names = {"guilty.0", "victim.0"};
  const std::vector<std::string> jobs = {"guilty", "victim"};
  const auto rows = MakeRows(names, jobs, {&guilty, &self});

  AntagonistIdentifier identifier(Cpi2Params{});
  std::vector<AntagonistIdentifier::RankedRef> ranked;
  identifier.AnalyzeBatched(victim, 2.0, rows, /*skip_row=*/1, 10 * kMinute, &ranked);
  ASSERT_EQ(ranked.size(), 1u);
  EXPECT_EQ(*rows[ranked[0].row].task, "guilty.0");

  // kNoSkip scores the victim row like any other suspect.
  identifier.AnalyzeBatched(victim, 2.0, rows, AntagonistIdentifier::kNoSkip,
                            10 * kMinute, &ranked);
  EXPECT_EQ(ranked.size(), 2u);
}

TEST(AntagonistIdentifierTest, AnalyzeBatchedBreaksTiesByRowOrder) {
  // Identical scores rank by ascending row index == ascending task id (the
  // table is name-sorted).
  const TimeSeries victim = PainfulVictim();
  const TimeSeries usage_a = ActiveDuring(5, 10);
  const TimeSeries usage_b = ActiveDuring(5, 10);

  const std::vector<std::string> names = {"alpha.0", "zeta.0"};
  const std::vector<std::string> jobs = {"alpha", "zeta"};
  const auto rows = MakeRows(names, jobs, {&usage_a, &usage_b});

  AntagonistIdentifier identifier(Cpi2Params{});
  std::vector<AntagonistIdentifier::RankedRef> ranked;
  identifier.AnalyzeBatched(victim, 2.0, rows, AntagonistIdentifier::kNoSkip,
                            10 * kMinute, &ranked);
  ASSERT_EQ(ranked.size(), 2u);
  EXPECT_EQ(ranked[0].correlation, ranked[1].correlation);
  EXPECT_EQ(*rows[ranked[0].row].task, "alpha.0");
  EXPECT_EQ(*rows[ranked[1].row].task, "zeta.0");
}

TEST(AntagonistIdentifierTest, AnalyzeBatchedReusesScratchAcrossVictims) {
  // Storm shape: several victims scored back-to-back against the same table
  // and identifier. Later calls (reused scratch) must match a fresh
  // identifier's first call bit-for-bit.
  const TimeSeries guilty = ActiveDuring(5, 10);
  const TimeSeries innocent = ActiveDuring(0, 5);
  const std::vector<std::string> names = {"guilty.0", "innocent.0"};
  const std::vector<std::string> jobs = {"guilty", "innocent"};
  const auto rows = MakeRows(names, jobs, {&guilty, &innocent});

  Cpi2Params params;
  params.analysis_interval = 0;  // storms ignore the 1/sec limiter
  AntagonistIdentifier storm(params);
  std::vector<AntagonistIdentifier::RankedRef> ranked;
  std::vector<TimeSeries> victims;
  for (int v = 0; v < 4; ++v) {
    TimeSeries series;
    for (int i = 0; i < 10; ++i) {
      series.Append(i * kMinute, i < 5 ? 1.0 + 0.1 * v : 4.0 + 0.3 * v);
    }
    victims.push_back(std::move(series));
  }
  for (const TimeSeries& victim : victims) {
    storm.AnalyzeBatched(victim, 2.0, rows, AntagonistIdentifier::kNoSkip, 10 * kMinute,
                         &ranked);
    AntagonistIdentifier fresh(params);
    std::vector<AntagonistIdentifier::RankedRef> expected;
    fresh.AnalyzeBatched(victim, 2.0, rows, AntagonistIdentifier::kNoSkip, 10 * kMinute,
                         &expected);
    ASSERT_EQ(ranked.size(), expected.size());
    for (size_t i = 0; i < ranked.size(); ++i) {
      EXPECT_EQ(ranked[i].row, expected[i].row);
      EXPECT_EQ(ranked[i].correlation, expected[i].correlation);
    }
  }
  EXPECT_EQ(storm.analyses_run(), 4);
}

TEST(AntagonistIdentifierTest, AnalyzeBatchedSkipsNullAndNoOverlapRows) {
  const TimeSeries victim = PainfulVictim();
  TimeSeries stale;
  stale.Append(0, 1.0);
  const TimeSeries guilty = ActiveDuring(5, 10);

  Cpi2Params params;
  params.correlation_window = 3 * kMinute;  // stale falls outside
  const std::vector<std::string> names = {"ghost.0", "guilty.0", "stale.0"};
  const std::vector<std::string> jobs = {"ghost", "guilty", "stale"};
  const auto rows = MakeRows(names, jobs, {nullptr, &guilty, &stale});

  AntagonistIdentifier identifier(params);
  std::vector<AntagonistIdentifier::RankedRef> ranked;
  identifier.AnalyzeBatched(victim, 2.0, rows, AntagonistIdentifier::kNoSkip,
                            10 * kMinute, &ranked);
  ASSERT_EQ(ranked.size(), 1u);
  EXPECT_EQ(*rows[ranked[0].row].task, "guilty.0");
}

}  // namespace
}  // namespace cpi2
