// Analysis-plane fast path: the production batched identification engine
// (AntagonistIdentifier::AnalyzeBatched) vs the per-suspect AlignSeries +
// AntagonistCorrelation reference (tests/testing/reference_correlation.h),
// swept over suspect count x correlation-window length.
//
// Series shapes mirror an agent under dense (1 Hz) telemetry: the victim CPI
// and every suspect usage series retain 2x the correlation window, exactly
// what Agent keeps around for analysis (it trims at now - 2 * window). Each
// measurement first proves the two paths bit-identical on the cell's inputs,
// then times full analyses. Writes BENCH_antagonist_scale.json (one JSON
// line) unless --smoke.

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench/common/report.h"
#include "core/antagonist_identifier.h"
#include "tests/testing/reference_correlation.h"
#include "util/logging.h"
#include "util/string_util.h"
#include "util/time_series.h"

namespace cpi2 {
namespace {

constexpr MicroTime kSecond = kMicrosPerSecond;
constexpr MicroTime kSamplePeriod = kSecond;  // dense 1 Hz telemetry

struct Cell {
  int suspects = 0;
  int window_minutes = 0;
  double legacy_per_sec = 0.0;
  double fast_per_sec = 0.0;
  double speedup = 0.0;
  bool identical = false;
};

// Victim CPI oscillating around the threshold so both correlation branches
// are exercised; deterministic, no RNG needed.
TimeSeries MakeVictim(MicroTime retain) {
  TimeSeries series;
  for (MicroTime t = 0; t < retain; t += kSamplePeriod) {
    const double phase = static_cast<double>(t / kSamplePeriod);
    series.Append(t, 2.0 + 1.5 * std::sin(phase * 0.05));
  }
  return series;
}

TimeSeries MakeSuspect(MicroTime retain, int index) {
  TimeSeries series;
  for (MicroTime t = 0; t < retain; t += kSamplePeriod) {
    const double phase = static_cast<double>(t / kSamplePeriod) + 3.7 * index;
    series.Append(t, 0.5 + 0.5 * std::sin(phase * 0.08));
  }
  return series;
}

// Times repeated calls of `analyze` (returns the ranked count), returning
// analyses per wall second.
template <typename Analyze>
double MeasureAnalyses(const Analyze& analyze, int min_reps, double min_seconds) {
  int reps = 0;
  const auto start = std::chrono::steady_clock::now();
  double elapsed = 0.0;
  do {
    volatile size_t sink = analyze();
    (void)sink;
    ++reps;
    elapsed = std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  } while (reps < min_reps || elapsed < min_seconds);
  return elapsed > 0.0 ? reps / elapsed : 0.0;
}

Cell RunCell(int suspects, int window_minutes, bool smoke) {
  const MicroTime window = window_minutes * kMicrosPerMinute;
  const MicroTime retain = 2 * window;  // Agent trims at now - 2 * window
  const MicroTime now = retain - 1;

  const TimeSeries victim = MakeVictim(retain);
  std::vector<TimeSeries> usages;
  usages.reserve(suspects);
  for (int i = 0; i < suspects; ++i) {
    usages.push_back(MakeSuspect(retain, i));
  }
  // Zero-padded names keep the suspect table name-sorted, as the agent's is.
  std::vector<SuspectInput> inputs;
  inputs.reserve(suspects);
  std::vector<std::string> names(suspects);
  const std::string job = "suspect-job";
  std::vector<AntagonistIdentifier::SuspectRow> rows;
  rows.reserve(suspects);
  for (int i = 0; i < suspects; ++i) {
    names[i] = StrFormat("suspect.%04d", i);
    inputs.push_back({names[i], job, WorkloadClass::kBatch, JobPriority::kBestEffort,
                      &usages[i]});
    rows.push_back({&names[i], &job, WorkloadClass::kBatch, JobPriority::kBestEffort,
                    &usages[i]});
  }

  Cpi2Params params;
  params.correlation_window = window;
  params.sample_period = kSamplePeriod;
  AntagonistIdentifier fast(params);
  std::vector<AntagonistIdentifier::RankedRef> ranked;
  const auto fast_once = [&]() {
    fast.AnalyzeBatched(victim, /*cpi_threshold=*/2.0, rows, AntagonistIdentifier::kNoSkip,
                        now, &ranked);
    return ranked.size();
  };
  const auto legacy_once = [&]() {
    return ReferenceAnalyze(params, victim, /*cpi_threshold=*/2.0, inputs, now,
                            ReferenceKernel::kAlignSeries)
        .size();
  };

  Cell cell;
  cell.suspects = suspects;
  cell.window_minutes = window_minutes;

  // Bit-identity on this cell's inputs before timing anything.
  fast_once();
  const std::vector<Suspect> legacy_ranked = ReferenceAnalyze(
      params, victim, 2.0, inputs, now, ReferenceKernel::kAlignSeries);
  cell.identical = ranked.size() == legacy_ranked.size() && !ranked.empty();
  for (size_t i = 0; cell.identical && i < ranked.size(); ++i) {
    cell.identical = *rows[ranked[i].row].task == legacy_ranked[i].task &&
                     ranked[i].correlation == legacy_ranked[i].correlation;
  }

  const int min_reps = smoke ? 2 : 5;
  const double min_seconds = smoke ? 0.01 : 0.25;
  cell.legacy_per_sec = MeasureAnalyses(legacy_once, min_reps, min_seconds);
  cell.fast_per_sec = MeasureAnalyses(fast_once, min_reps, min_seconds);
  cell.speedup = cell.legacy_per_sec > 0.0 ? cell.fast_per_sec / cell.legacy_per_sec : 0.0;
  return cell;
}

int Main(bool smoke) {
  SetMinLogLevel(LogLevel::kWarning);
  PrintHeader("antagonist_scale",
              "Batched identification engine vs per-suspect AlignSeries reference: "
              "full-analysis throughput over suspects x window length");
  PrintPaperClaim("(engineering benchmark, no paper counterpart: section 4.2's "
                  "correlation must run at 1 analysis/sec/machine; this measures the "
                  "headroom the indexed/fused data plane buys)");

  const std::vector<int> suspect_counts = smoke ? std::vector<int>{4} : std::vector<int>{10, 50, 100};
  const std::vector<int> window_minutes = smoke ? std::vector<int>{1} : std::vector<int>{1, 10, 60};

  std::vector<Cell> cells;
  bool all_identical = true;
  for (int suspects : suspect_counts) {
    for (int minutes : window_minutes) {
      cells.push_back(RunCell(suspects, minutes, smoke));
      const Cell& cell = cells.back();
      all_identical = all_identical && cell.identical;
      PrintResult(StrFormat("legacy_analyses_per_sec_s%d_w%dm", cell.suspects,
                            cell.window_minutes),
                  cell.legacy_per_sec);
      PrintResult(StrFormat("fast_analyses_per_sec_s%d_w%dm", cell.suspects,
                            cell.window_minutes),
                  cell.fast_per_sec);
      PrintResult(StrFormat("speedup_s%d_w%dm", cell.suspects, cell.window_minutes),
                  cell.speedup);
      if (!cell.identical) {
        PrintResult(StrFormat("BIT_IDENTITY_FAILED_s%d_w%dm", cell.suspects,
                              cell.window_minutes),
                    1.0);
      }
    }
  }

  std::string json = StrFormat("{\"bench\":\"antagonist_scale\",\"identical\":%s,\"cells\":[",
                               all_identical ? "true" : "false");
  for (size_t i = 0; i < cells.size(); ++i) {
    const Cell& cell = cells[i];
    json += StrFormat(
        "%s{\"suspects\":%d,\"window_min\":%d,\"legacy_per_sec\":%.1f,"
        "\"fast_per_sec\":%.1f,\"speedup\":%.2f}",
        i == 0 ? "" : ",", cell.suspects, cell.window_minutes, cell.legacy_per_sec,
        cell.fast_per_sec, cell.speedup);
  }
  json += "]}";

  std::printf("%s\n", json.c_str());
  if (!smoke) {
    // Smoke shapes are not comparable across PRs; don't overwrite the record.
    if (FILE* f = std::fopen("BENCH_antagonist_scale.json", "w"); f != nullptr) {
      std::fprintf(f, "%s\n", json.c_str());
      std::fclose(f);
    }
  }
  return all_identical ? 0 : 1;
}

}  // namespace
}  // namespace cpi2

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    }
  }
  return cpi2::Main(smoke);
}
