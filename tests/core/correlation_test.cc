// Tests for the paper's antagonist-correlation formula (section 4.2), on the
// reference scorer that the production batched kernel is held bit-identical
// to (correlation_equivalence_test).

#include <gtest/gtest.h>

#include <vector>

#include "tests/testing/reference_correlation.h"
#include "util/rng.h"

namespace cpi2 {
namespace {

std::vector<AlignedPair> MakePairs(const std::vector<double>& cpi,
                                   const std::vector<double>& usage) {
  std::vector<AlignedPair> pairs;
  for (size_t i = 0; i < cpi.size(); ++i) {
    pairs.push_back({static_cast<MicroTime>(i) * kMicrosPerMinute, cpi[i], usage[i]});
  }
  return pairs;
}

TEST(AntagonistCorrelationTest, EmptyIsZero) {
  EXPECT_DOUBLE_EQ(AntagonistCorrelation({}, 2.0), 0.0);
}

TEST(AntagonistCorrelationTest, IdleSuspectIsZero) {
  const auto pairs = MakePairs({3.0, 3.0, 3.0}, {0.0, 0.0, 0.0});
  EXPECT_DOUBLE_EQ(AntagonistCorrelation(pairs, 2.0), 0.0);
}

TEST(AntagonistCorrelationTest, NonPositiveThresholdIsZero) {
  const auto pairs = MakePairs({3.0}, {1.0});
  EXPECT_DOUBLE_EQ(AntagonistCorrelation(pairs, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(AntagonistCorrelation(pairs, -1.0), 0.0);
}

TEST(AntagonistCorrelationTest, GuiltySuspectScoresPositive) {
  // Suspect runs exactly when the victim hurts.
  const auto pairs = MakePairs({1.0, 1.0, 4.0, 4.0, 1.0}, {0.0, 0.0, 3.0, 3.0, 0.0});
  const double corr = AntagonistCorrelation(pairs, 2.0);
  // All usage falls on c=4 > thr=2: corr = 1 - 2/4 = 0.5.
  EXPECT_NEAR(corr, 0.5, 1e-12);
}

TEST(AntagonistCorrelationTest, InnocentSuspectScoresNegative) {
  // Suspect runs only while the victim is healthy.
  const auto pairs = MakePairs({1.0, 1.0, 4.0, 4.0}, {2.0, 2.0, 0.0, 0.0});
  const double corr = AntagonistCorrelation(pairs, 2.0);
  // All usage falls on c=1 < thr=2: corr = 1/2 - 1 = -0.5.
  EXPECT_NEAR(corr, -0.5, 1e-12);
}

TEST(AntagonistCorrelationTest, ConstantUsageOnMixedCpiCancels) {
  // Symmetric pain/health with constant usage roughly cancels out.
  const auto pairs = MakePairs({4.0, 1.0, 4.0, 1.0}, {1.0, 1.0, 1.0, 1.0});
  const double corr = AntagonistCorrelation(pairs, 2.0);
  // 2 * 0.25*(1 - 0.5) + 2 * 0.25*(0.5 - 1) = 0.25 - 0.25 = 0.
  EXPECT_NEAR(corr, 0.0, 1e-12);
}

TEST(AntagonistCorrelationTest, SamplesAtThresholdContributeNothing) {
  const auto pairs = MakePairs({2.0, 2.0}, {1.0, 1.0});
  EXPECT_DOUBLE_EQ(AntagonistCorrelation(pairs, 2.0), 0.0);
}

TEST(AntagonistCorrelationTest, ScaleInvariantInUsage) {
  // Normalization makes the score independent of the suspect's absolute CPU.
  const auto small = MakePairs({1.0, 4.0, 4.0}, {0.1, 0.5, 0.4});
  const auto big = MakePairs({1.0, 4.0, 4.0}, {1.0, 5.0, 4.0});
  EXPECT_NEAR(AntagonistCorrelation(small, 2.0), AntagonistCorrelation(big, 2.0), 1e-12);
}

TEST(AntagonistCorrelationTest, ExtremePainApproachesOne) {
  // Victim CPI far above threshold whenever the suspect runs: corr -> 1.
  const auto pairs = MakePairs({1000.0, 1000.0}, {1.0, 1.0});
  EXPECT_GT(AntagonistCorrelation(pairs, 2.0), 0.99);
}

TEST(AntagonistCorrelationTest, ExtremeHealthApproachesMinusOne) {
  // Victim CPI near zero whenever the suspect runs: corr -> -1.
  const auto pairs = MakePairs({0.001, 0.001}, {1.0, 1.0});
  EXPECT_LT(AntagonistCorrelation(pairs, 2.0), -0.99);
}

// Property sweep: the score is always in [-1, 1] for random inputs.
class CorrelationBoundsTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CorrelationBoundsTest, WithinBounds) {
  Rng rng(GetParam());
  std::vector<AlignedPair> pairs;
  const int n = static_cast<int>(rng.UniformInt(1, 50));
  for (int i = 0; i < n; ++i) {
    pairs.push_back({static_cast<MicroTime>(i) * kMicrosPerMinute,
                     rng.Pareto(0.1, 0.8),            // wild CPI values
                     rng.Uniform(0.0, 10.0)});        // arbitrary usage
  }
  const double threshold = rng.Uniform(0.1, 5.0);
  const double corr = AntagonistCorrelation(pairs, threshold);
  EXPECT_GE(corr, -1.0 - 1e-12);
  EXPECT_LE(corr, 1.0 + 1e-12);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CorrelationBoundsTest, ::testing::Range<uint64_t>(1, 26));

TEST(AntagonistCorrelationTest, ZeroCpiSamplesAreSkipped) {
  // c == 0 would divide by zero in the healthy branch; such samples carry no
  // information and must contribute nothing.
  const auto pairs = MakePairs({0.0, 4.0}, {1.0, 1.0});
  EXPECT_NEAR(AntagonistCorrelation(pairs, 2.0), 0.25, 1e-12);
}

}  // namespace
}  // namespace cpi2
