// Output helpers for the figure/table harnesses.
//
// Every bench binary prints: a header naming the paper artifact it
// regenerates, the paper's reported numbers ("paper:" lines), and its own
// measured rows ("RESULT name = value" lines plus plotted series). The
// RESULT lines are grep-able so EXPERIMENTS.md can be refreshed mechanically.

#ifndef CPI2_BENCH_COMMON_REPORT_H_
#define CPI2_BENCH_COMMON_REPORT_H_

#include <string>
#include <vector>

#include "stats/summary.h"
#include "util/time_series.h"

namespace cpi2 {

// Banner naming the experiment.
void PrintHeader(const std::string& artifact, const std::string& description);

// What the paper reports for this artifact (for eyeball comparison).
void PrintPaperClaim(const std::string& text);

// One measured scalar: "RESULT <name> = <value>".
void PrintResult(const std::string& name, double value);
// A "shape_holds" result is also the binary's verdict on the paper claim it
// reproduces: "yes..." holds, anything else fails.
void PrintResult(const std::string& name, const std::string& value);

// The paper binaries' exit code: 0 when at least one shape_holds verdict
// was printed and every one said "yes", 1 otherwise. ctest's `paper` label
// runs them, so a broken claim fails `check-paper`.
int VerdictExitCode();

// A time series, downsampled to ~max_rows evenly spaced rows, values scaled
// by `scale`. Time is printed in minutes from the series start.
void PrintSeries(const std::string& name, const TimeSeries& series, int max_rows = 20,
                 double scale = 1.0);

// Two aligned series side by side (e.g. victim CPI vs antagonist usage).
void PrintSeriesPair(const std::string& name_a, const TimeSeries& a, const std::string& name_b,
                     const TimeSeries& b, int max_rows = 20);

// Percentile rows of a distribution.
void PrintCdf(const std::string& name, const EmpiricalDistribution& distribution);

// Section separator.
void PrintSection(const std::string& title);

// Simple fixed-width table.
void PrintTableRow(const std::vector<std::string>& cells, int width = 22);

}  // namespace cpi2

#endif  // CPI2_BENCH_COMMON_REPORT_H_
