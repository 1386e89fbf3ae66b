// Figure 15: antagonist-detection accuracy across all jobs.
//
// Paper: (a) true/false positive rates vs the correlation threshold, split
// production vs non-production — production detects far better (~0.35 is
// the chosen operating point); (b) relative victim CPI of true positives
// improves with correlation (0.52x production / 0.82x non-production at
// 0.35); (c) among true positives, relative L3 misses/instruction tracks
// relative CPI with linear correlation ~0.87.

#include <vector>

#include "bench/common/report.h"
#include "bench/common/trials.h"
#include "stats/correlation.h"
#include "util/string_util.h"

namespace cpi2 {
namespace {

void Run() {
  PrintHeader("Figure 15", "detection accuracy (all jobs), ~400 throttle trials");
  PrintPaperClaim("(a) production TP >> non-production TP; 0.35 threshold works well;");
  PrintPaperClaim("(b) TP relative CPI ~0.52 (prod) / ~0.82 (non-prod) at 0.35;");
  PrintPaperClaim("(c) relative L3 MPI vs relative CPI linear correlation ~0.87");

  TrialOptions options;
  options.trials = 400;
  options.seed = 1515;
  const std::vector<ThrottleTrial> trials = RunThrottleTrials(options);

  PrintSection("(a) detection rates vs correlation threshold");
  PrintTableRow({"threshold", "prod TP", "prod FP", "nonprod TP", "nonprod FP", "n(prod)",
                 "n(nonprod)"},
                12);
  for (double threshold : {0.20, 0.25, 0.30, 0.35, 0.40, 0.45, 0.50}) {
    const DetectionRates prod = ComputeRates(trials, threshold, true, true);
    const DetectionRates nonprod = ComputeRates(trials, threshold, true, false);
    PrintTableRow({StrFormat("%.2f", threshold), StrFormat("%.0f%%", prod.true_positive * 100),
                   StrFormat("%.0f%%", prod.false_positive * 100),
                   StrFormat("%.0f%%", nonprod.true_positive * 100),
                   StrFormat("%.0f%%", nonprod.false_positive * 100),
                   StrFormat("%d", prod.considered), StrFormat("%d", nonprod.considered)},
                  12);
  }
  const DetectionRates prod_035 = ComputeRates(trials, 0.35, true, true);
  const DetectionRates nonprod_035 = ComputeRates(trials, 0.35, true, false);
  PrintResult("prod_tp_at_0.35", prod_035.true_positive);
  PrintResult("nonprod_tp_at_0.35", nonprod_035.true_positive);

  PrintSection("(b) relative CPI of true positives at threshold 0.35");
  double prod_rel = 0.0;
  int prod_n = 0;
  double nonprod_rel = 0.0;
  int nonprod_n = 0;
  for (const ThrottleTrial& trial : trials) {
    if (!trial.incident_fired || trial.top_correlation < 0.35 ||
        trial.Classify() != ThrottleTrial::Outcome::kTruePositive) {
      continue;
    }
    if (trial.production_victim) {
      prod_rel += trial.relative_cpi;
      ++prod_n;
    } else {
      nonprod_rel += trial.relative_cpi;
      ++nonprod_n;
    }
  }
  if (prod_n > 0) {
    PrintResult("prod_tp_relative_cpi", prod_rel / prod_n);
  }
  if (nonprod_n > 0) {
    PrintResult("nonprod_tp_relative_cpi", nonprod_rel / nonprod_n);
  }

  PrintSection("(c) relative L3 MPI vs relative CPI (true positives)");
  std::vector<double> rel_cpi;
  std::vector<double> rel_l3;
  for (const ThrottleTrial& trial : trials) {
    if (trial.incident_fired && trial.top_correlation >= 0.35 &&
        trial.Classify() == ThrottleTrial::Outcome::kTruePositive &&
        trial.relative_l3_mpi > 0.0) {
      rel_cpi.push_back(trial.relative_cpi);
      rel_l3.push_back(trial.relative_l3_mpi);
    }
  }
  const OlsFit fit = FitOls(rel_cpi, rel_l3);
  PrintResult("l3_vs_cpi_linear_correlation", fit.r);
  PrintResult("l3_vs_cpi_points", static_cast<double>(fit.n));

  const bool shape =
      prod_035.true_positive > nonprod_035.true_positive &&
      prod_035.true_positive > 0.5 &&
      (prod_n == 0 || prod_rel / prod_n < (nonprod_n == 0 ? 1.0 : nonprod_rel / nonprod_n)) &&
      fit.r > 0.6;
  PrintResult("shape_holds",
              shape ? "yes (production detects better and benefits more; L3 relief "
                      "tracks CPI relief)"
                    : "NO");
}

}  // namespace
}  // namespace cpi2

int main() {
  cpi2::Run();
  return cpi2::VerdictExitCode();
}
