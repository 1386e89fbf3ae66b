// Figure 16: accuracy and victim benefit for production jobs.
//
// Paper: (a) ~70% true-positive rate for production jobs, roughly flat in
// the correlation threshold above 0.35; (b) detection is only reliable once
// the victim's CPI sits >= 3 standard deviations above the mean; (c) the
// relative victim CPI is below 1 across the full range of degradations;
// (d) the median production victim's CPI drops to ~0.63x its pre-throttling
// value (true and false positives pooled).

#include <vector>

#include "bench/common/report.h"
#include "bench/common/trials.h"
#include "util/string_util.h"

namespace cpi2 {
namespace {

void Run() {
  PrintHeader("Figure 16", "production-job accuracy and victim benefit");
  PrintPaperClaim("(a) ~70% TP above 0.35; (b) anomalies need >= 3 sigma CPI increases;");
  PrintPaperClaim("(c) relative CPI < 1 across degradations; (d) median relative CPI ~0.63");

  TrialOptions options;
  options.trials = 400;
  options.seed = 1616;
  options.production_fraction = 1.0;  // production victims only
  const std::vector<ThrottleTrial> trials = RunThrottleTrials(options);

  PrintSection("(a) detection rates vs correlation threshold (production)");
  PrintTableRow({"threshold", "TP", "FP", "n"}, 12);
  for (double threshold : {0.35, 0.40, 0.45, 0.50}) {
    const DetectionRates rates = ComputeRates(trials, threshold, true, true);
    PrintTableRow({StrFormat("%.2f", threshold), StrFormat("%.0f%%", rates.true_positive * 100),
                   StrFormat("%.0f%%", rates.false_positive * 100),
                   StrFormat("%d", rates.considered)},
                  12);
  }
  const DetectionRates at_035 = ComputeRates(trials, 0.35, true, true);
  PrintResult("tp_rate_at_0.35", at_035.true_positive);

  PrintSection("(b) outcome vs CPI increase (in spec stddevs)");
  PrintTableRow({"CPI increase", "TP", "FP", "n"}, 14);
  const double buckets[] = {0.0, 3.0, 5.0, 8.0, 11.0, 1e9};
  double low_sigma_tp = 0.0;
  double high_sigma_tp = 0.0;
  for (int b = 0; b + 1 < 6; ++b) {
    int tp = 0;
    int fp = 0;
    int n = 0;
    for (const ThrottleTrial& trial : trials) {
      if (!trial.incident_fired || trial.top_correlation < 0.35) {
        continue;
      }
      if (trial.cpi_increase_sigmas < buckets[b] || trial.cpi_increase_sigmas >= buckets[b + 1]) {
        continue;
      }
      ++n;
      const auto outcome = trial.Classify();
      tp += outcome == ThrottleTrial::Outcome::kTruePositive ? 1 : 0;
      fp += outcome == ThrottleTrial::Outcome::kFalsePositive ? 1 : 0;
    }
    PrintTableRow({StrFormat("%.0f-%.0f sd", buckets[b], std::min(buckets[b + 1], 99.0)),
                   n > 0 ? StrFormat("%.0f%%", 100.0 * tp / n) : "-",
                   n > 0 ? StrFormat("%.0f%%", 100.0 * fp / n) : "-", StrFormat("%d", n)},
                  14);
    if (n > 0 && b == 0) {
      low_sigma_tp = static_cast<double>(tp) / n;
    }
    if (n > 0 && b >= 1) {
      high_sigma_tp = std::max(high_sigma_tp, static_cast<double>(tp) / n);
    }
  }

  PrintSection("(c) relative CPI vs degradation (threshold 0.35, all outcomes)");
  PrintTableRow({"degradation", "mean relative CPI", "n"}, 20);
  for (int b = 0; b < 5; ++b) {
    const double lo = 1.0 + b;
    const double hi = lo + 1.0;
    double sum = 0.0;
    int n = 0;
    for (const ThrottleTrial& trial : trials) {
      if (trial.incident_fired && trial.top_correlation >= 0.35 &&
          trial.cpi_degradation >= lo && trial.cpi_degradation < hi &&
          trial.relative_cpi > 0.0) {
        sum += trial.relative_cpi;
        ++n;
      }
    }
    PrintTableRow({StrFormat("%.0fx-%.0fx", lo, hi),
                   n > 0 ? StrFormat("%.2f", sum / n) : "-", StrFormat("%d", n)},
                  20);
  }

  PrintSection("(d) CDF of relative victim CPI (threshold 0.35, TP+FP pooled)");
  std::vector<double> relative;
  for (const ThrottleTrial& trial : trials) {
    if (trial.incident_fired && trial.top_correlation >= 0.35 && trial.relative_cpi > 0.0) {
      relative.push_back(trial.relative_cpi);
    }
  }
  const EmpiricalDistribution dist(std::move(relative));
  PrintCdf("relative victim CPI", dist);
  PrintResult("median_relative_cpi", dist.Percentile(0.5));

  const bool shape = at_035.true_positive > 0.55 && dist.Percentile(0.5) < 0.85 &&
                     high_sigma_tp >= low_sigma_tp;
  PrintResult("shape_holds", shape ? "yes (high TP rate; throttling clearly helps the median "
                                     "production victim; bigger CPI excursions detect better)"
                                   : "NO");
}

}  // namespace
}  // namespace cpi2

int main() {
  cpi2::Run();
  return cpi2::VerdictExitCode();
}
