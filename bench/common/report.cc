#include "bench/common/report.h"

#include <cstdio>

#include "util/clock.h"
#include "util/string_util.h"

namespace cpi2 {
namespace {

int verdicts_printed = 0;
bool verdict_failed = false;

}  // namespace

void PrintHeader(const std::string& artifact, const std::string& description) {
  std::printf("\n================================================================\n");
  std::printf("CPI2 reproduction — %s\n", artifact.c_str());
  std::printf("%s\n", description.c_str());
  std::printf("================================================================\n");
}

void PrintPaperClaim(const std::string& text) { std::printf("paper:    %s\n", text.c_str()); }

void PrintResult(const std::string& name, double value) {
  std::printf("RESULT %s = %.4g\n", name.c_str(), value);
}

void PrintResult(const std::string& name, const std::string& value) {
  std::printf("RESULT %s = %s\n", name.c_str(), value.c_str());
  if (name == "shape_holds") {
    ++verdicts_printed;
    verdict_failed |= value.rfind("yes", 0) != 0;
  }
}

int VerdictExitCode() { return verdicts_printed > 0 && !verdict_failed ? 0 : 1; }

void PrintSeries(const std::string& name, const TimeSeries& series, int max_rows, double scale) {
  std::printf("--- %s (t in minutes) ---\n", name.c_str());
  if (series.empty()) {
    std::printf("  (empty)\n");
    return;
  }
  const MicroTime start = series[0].timestamp;
  const size_t stride =
      series.size() > static_cast<size_t>(max_rows) ? series.size() / static_cast<size_t>(max_rows) : 1;
  for (size_t i = 0; i < series.size(); i += stride) {
    std::printf("  t=%7.1f  %10.4f\n",
                static_cast<double>(series[i].timestamp - start) / kMicrosPerMinute,
                series[i].value * scale);
  }
}

void PrintSeriesPair(const std::string& name_a, const TimeSeries& a, const std::string& name_b,
                     const TimeSeries& b, int max_rows) {
  std::printf("--- t(min)    %-18s %-18s ---\n", name_a.c_str(), name_b.c_str());
  if (a.empty()) {
    std::printf("  (empty)\n");
    return;
  }
  const MicroTime start = a[0].timestamp;
  const size_t stride =
      a.size() > static_cast<size_t>(max_rows) ? a.size() / static_cast<size_t>(max_rows) : 1;
  for (size_t i = 0; i < a.size(); i += stride) {
    bool found = false;
    const double vb = b.NearestValue(a[i].timestamp, kMicrosPerMinute, &found);
    std::printf("  t=%7.1f  %12.4f     %12.4f%s\n",
                static_cast<double>(a[i].timestamp - start) / kMicrosPerMinute, a[i].value,
                found ? vb : 0.0, found ? "" : " (n/a)");
  }
}

void PrintCdf(const std::string& name, const EmpiricalDistribution& distribution) {
  std::printf("--- CDF of %s (n=%zu) ---\n", name.c_str(), distribution.size());
  for (double p : {0.01, 0.05, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99}) {
    std::printf("  p%-4.0f %10.3f\n", p * 100.0, distribution.Percentile(p));
  }
}

void PrintSection(const std::string& title) {
  std::printf("\n---- %s ----\n", title.c_str());
}

void PrintTableRow(const std::vector<std::string>& cells, int width) {
  std::string line;
  for (const std::string& cell : cells) {
    line += PadRight(cell, static_cast<size_t>(width));
  }
  std::printf("%s\n", line.c_str());
}

}  // namespace cpi2
