#include "stats/distribution.h"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <tuple>

#include "util/rng.h"

namespace cpi2 {
namespace {

TEST(StandardNormalTest, CdfKnownValues) {
  EXPECT_NEAR(StandardNormalCdf(0.0), 0.5, 1e-12);
  EXPECT_NEAR(StandardNormalCdf(1.959963985), 0.975, 1e-6);
  EXPECT_NEAR(StandardNormalCdf(-1.959963985), 0.025, 1e-6);
  EXPECT_NEAR(StandardNormalCdf(3.0), 0.99865, 1e-5);
}

TEST(StandardNormalTest, QuantileInvertsCdf) {
  for (double p : {0.001, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999}) {
    const double z = StandardNormalQuantile(p);
    EXPECT_NEAR(StandardNormalCdf(z), p, 1e-8) << "p=" << p;
  }
}

TEST(RegularizedGammaTest, KnownValues) {
  // P(1, x) = 1 - e^-x.
  EXPECT_NEAR(RegularizedGammaP(1.0, 1.0), 1.0 - std::exp(-1.0), 1e-10);
  EXPECT_NEAR(RegularizedGammaP(1.0, 5.0), 1.0 - std::exp(-5.0), 1e-10);
  // P(a, 0) = 0; P(a, inf) -> 1.
  EXPECT_DOUBLE_EQ(RegularizedGammaP(3.0, 0.0), 0.0);
  EXPECT_NEAR(RegularizedGammaP(3.0, 100.0), 1.0, 1e-10);
  // Chi-squared(k=2) median: P(1, 0.6931) = 0.5.
  EXPECT_NEAR(RegularizedGammaP(1.0, std::log(2.0)), 0.5, 1e-10);
}

// ---------------------------------------------------------------------------
// Generic distribution properties, swept across families and parameters.

struct DistCase {
  std::shared_ptr<Distribution> dist;
  double support_lo;  // where Cdf should be ~0
  double support_hi;  // where Cdf should be ~1
};

// Names each case by its distribution, e.g. "Normal(0, 1)". Without this
// gtest prints the struct's raw bytes, heap pointer included, and ctest's
// test names would change with every build.
void PrintTo(const DistCase& c, std::ostream* os) { *os << c.dist->ToString(); }

class DistributionPropertyTest : public ::testing::TestWithParam<DistCase> {};

TEST_P(DistributionPropertyTest, CdfIsMonotoneFromZeroToOne) {
  const DistCase& c = GetParam();
  double prev = -1e-9;
  for (int i = 0; i <= 100; ++i) {
    const double x =
        c.support_lo + (c.support_hi - c.support_lo) * static_cast<double>(i) / 100.0;
    const double f = c.dist->Cdf(x);
    EXPECT_GE(f, prev - 1e-12);
    EXPECT_GE(f, 0.0);
    EXPECT_LE(f, 1.0);
    prev = f;
  }
  // The given range must cover the bulk of the distribution (edges may sit
  // slightly inside the support, e.g. to dodge pdf singularities).
  EXPECT_LT(c.dist->Cdf(c.support_lo), 0.1);
  EXPECT_GT(c.dist->Cdf(c.support_hi), 0.9);
}

TEST_P(DistributionPropertyTest, QuantileInvertsCdf) {
  const DistCase& c = GetParam();
  for (double p : {0.01, 0.05, 0.1, 0.3, 0.5, 0.7, 0.9, 0.95, 0.99}) {
    const double x = c.dist->Quantile(p);
    EXPECT_NEAR(c.dist->Cdf(x), p, 1e-6) << c.dist->ToString() << " p=" << p;
  }
}

TEST_P(DistributionPropertyTest, PdfIntegratesToCdf) {
  // Trapezoidal integral of the pdf over the support should approximate the
  // CDF mass over that range.
  const DistCase& c = GetParam();
  const int steps = 4000;
  const double dx = (c.support_hi - c.support_lo) / steps;
  double integral = 0.0;
  for (int i = 0; i < steps; ++i) {
    const double x0 = c.support_lo + i * dx;
    integral += 0.5 * (c.dist->Pdf(x0) + c.dist->Pdf(x0 + dx)) * dx;
  }
  const double mass = c.dist->Cdf(c.support_hi) - c.dist->Cdf(c.support_lo);
  EXPECT_NEAR(integral, mass, 0.01) << c.dist->ToString();
}

TEST_P(DistributionPropertyTest, SamplesMatchQuantiles) {
  const DistCase& c = GetParam();
  Rng rng(2024);
  std::vector<double> samples;
  for (int i = 0; i < 20000; ++i) {
    samples.push_back(c.dist->Sample(rng));
  }
  std::sort(samples.begin(), samples.end());
  // Empirical median should be near the model median.
  const double median = samples[samples.size() / 2];
  const double model_median = c.dist->Quantile(0.5);
  const double spread = c.dist->Quantile(0.9) - c.dist->Quantile(0.1);
  EXPECT_NEAR(median, model_median, 0.05 * spread + 1e-6) << c.dist->ToString();
}

INSTANTIATE_TEST_SUITE_P(
    Families, DistributionPropertyTest,
    ::testing::Values(
        DistCase{std::make_shared<NormalDistribution>(0.0, 1.0), -5.0, 5.0},
        DistCase{std::make_shared<NormalDistribution>(10.0, 0.5), 7.0, 13.0},
        DistCase{std::make_shared<LogNormalDistribution>(0.0, 0.5), 0.05, 8.0},
        DistCase{std::make_shared<LogNormalDistribution>(1.0, 0.25), 0.8, 7.0},
        DistCase{std::make_shared<GammaDistribution>(2.0, 1.0), 0.001, 15.0},
        DistCase{std::make_shared<GammaDistribution>(9.0, 0.5), 0.5, 15.0},
        // Shape < 1 has a pdf singularity at 0; integrate from 0.05 where
        // the trapezoid rule is valid.
        DistCase{std::make_shared<GammaDistribution>(0.7, 2.0), 0.05, 25.0},
        // The paper's Figure 7 best fit: GEV(1.73, 0.133, -0.0534).
        DistCase{std::make_shared<GevDistribution>(1.73, 0.133, -0.0534), 1.2, 2.6},
        DistCase{std::make_shared<GevDistribution>(0.0, 1.0, 0.0), -3.0, 8.0},
        DistCase{std::make_shared<GevDistribution>(0.0, 1.0, 0.2), -2.0, 20.0}));

// ---------------------------------------------------------------------------
// Fitting

TEST(NormalFitTest, RecoversParameters) {
  Rng rng(1);
  std::vector<double> data;
  for (int i = 0; i < 50000; ++i) {
    data.push_back(rng.Normal(4.2, 1.3));
  }
  const NormalDistribution fit = NormalDistribution::Fit(data);
  EXPECT_NEAR(fit.mean(), 4.2, 0.02);
  EXPECT_NEAR(fit.stddev(), 1.3, 0.02);
}

TEST(LogNormalFitTest, RecoversParameters) {
  Rng rng(2);
  std::vector<double> data;
  for (int i = 0; i < 50000; ++i) {
    data.push_back(rng.LogNormal(0.5, 0.3));
  }
  const LogNormalDistribution fit = LogNormalDistribution::Fit(data);
  EXPECT_NEAR(fit.Quantile(0.5), std::exp(0.5), 0.02);
}

TEST(GammaFitTest, RecoversMoments) {
  Rng rng(3);
  const GammaDistribution truth(3.0, 2.0);
  std::vector<double> data;
  for (int i = 0; i < 50000; ++i) {
    data.push_back(truth.Sample(rng));
  }
  const GammaDistribution fit = GammaDistribution::Fit(data);
  EXPECT_NEAR(fit.shape(), 3.0, 0.15);
  EXPECT_NEAR(fit.scale(), 2.0, 0.1);
}

class GevFitTest : public ::testing::TestWithParam<std::tuple<double, double, double>> {};

TEST_P(GevFitTest, RecoversParameters) {
  const auto [location, scale, shape] = GetParam();
  const GevDistribution truth(location, scale, shape);
  Rng rng(4);
  std::vector<double> data;
  for (int i = 0; i < 60000; ++i) {
    data.push_back(truth.Sample(rng));
  }
  const GevDistribution fit = GevDistribution::Fit(data);
  EXPECT_NEAR(fit.location(), location, 0.05 * scale + 0.02);
  EXPECT_NEAR(fit.scale(), scale, 0.05 * scale + 0.02);
  EXPECT_NEAR(fit.shape(), shape, 0.05);
}

INSTANTIATE_TEST_SUITE_P(Params, GevFitTest,
                         ::testing::Values(std::make_tuple(1.73, 0.133, -0.0534),
                                           std::make_tuple(0.0, 1.0, 0.0),
                                           std::make_tuple(5.0, 2.0, 0.15),
                                           std::make_tuple(-2.0, 0.5, -0.2)));

TEST(GevFitTest, TinyInputFallsBackSafely) {
  const GevDistribution fit = GevDistribution::Fit({1.0, 2.0});
  EXPECT_GT(fit.scale(), 0.0);
}

TEST(LogLikelihoodTest, TrueModelBeatsWrongModel) {
  Rng rng(6);
  const GevDistribution truth(1.8, 0.16, -0.05);
  std::vector<double> data;
  for (int i = 0; i < 5000; ++i) {
    data.push_back(truth.Sample(rng));
  }
  const NormalDistribution normal = NormalDistribution::Fit(data);
  const GevDistribution gev = GevDistribution::Fit(data);
  EXPECT_GT(gev.LogLikelihood(data), normal.LogLikelihood(data));
}

}  // namespace
}  // namespace cpi2
