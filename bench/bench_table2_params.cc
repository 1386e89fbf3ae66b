// Table 2: CPI2 parameters and their default values.

#include <cstdio>

#include "bench/common/report.h"
#include "core/params.h"

int main() {
  cpi2::PrintHeader("Table 2", "CPI2 parameters and their default values");
  const cpi2::Cpi2Params defaults;
  std::printf("%s", defaults.ToTable().c_str());
  // The paper's Table 2, value by value.
  using cpi2::kMicrosPerHour;
  using cpi2::kMicrosPerMinute;
  using cpi2::kMicrosPerSecond;
  const bool verbatim = defaults.sample_duration == 10 * kMicrosPerSecond &&
                        defaults.sample_period == kMicrosPerMinute &&
                        defaults.spec_update_interval == 24 * kMicrosPerHour &&
                        defaults.min_cpu_usage == 0.25 && defaults.outlier_sigmas == 2.0 &&
                        defaults.outlier_violations == 3 &&
                        defaults.violation_window == 5 * kMicrosPerMinute &&
                        defaults.correlation_threshold == 0.35 && defaults.cap_other == 0.1 &&
                        defaults.cap_best_effort == 0.01 &&
                        defaults.cap_duration == 5 * kMicrosPerMinute;
  cpi2::PrintResult("shape_holds", verbatim
                                       ? "yes (defaults match the paper's Table 2 verbatim)"
                                       : "NO (a default differs from the paper's Table 2)");
  return cpi2::VerdictExitCode();
}
