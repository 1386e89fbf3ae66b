// Quickstart: the whole CPI2 API in one file, against fake backends.
//
//   1. Feed per-task CPI samples into a SpecBuilder and build a CPI spec.
//   2. Score incoming samples with the OutlierDetector.
//   3. When a task turns anomalous, rank co-resident suspects with the
//      antagonist correlation.
//   4. Apply the enforcement policy (CPU hard-capping) to the culprit.
//
// Build & run:  ./build/examples/quickstart

#include <cstdio>
#include <string>
#include <vector>

#include "core/cpi2.h"

namespace {

using namespace cpi2;  // NOLINT: example brevity

int Run() {
  Cpi2Params params;             // Table 2 defaults
  params.min_tasks_for_spec = 3;  // small demo data set
  params.min_samples_per_task = 4;

  // --- 1. learn normal behaviour -----------------------------------------
  SpecBuilder builder(params);
  // Three tasks of "websearch" hum along at CPI ~1.8 +/- 0.1 for 8 minutes.
  for (int minute = 0; minute < 8; ++minute) {
    for (int task = 0; task < 3; ++task) {
      CpiSample sample;
      sample.jobname = "websearch";
      sample.platforminfo = "xeon-2.6GHz";
      sample.task = "websearch." + std::to_string(task);
      sample.timestamp = minute * kMicrosPerMinute;
      sample.cpu_usage = 0.6;
      sample.cpi = 1.8 + 0.1 * ((minute + task) % 3 - 1);
      builder.AddSample(sample);
    }
  }
  const auto specs = builder.BuildSpecs();
  if (specs.empty()) {
    std::printf("no spec built — not enough data\n");
    return 1;
  }
  const CpiSpec spec = specs.front();
  std::printf("spec: %s on %s — CPI %.2f +/- %.2f (%lld samples)\n", spec.jobname.c_str(),
              spec.platforminfo.c_str(), spec.cpi_mean, spec.cpi_stddev,
              static_cast<long long>(spec.num_samples));

  // --- 2. detect an anomaly ------------------------------------------------
  OutlierDetector detector(params);
  TimeSeries victim_cpi;   // the detector's inputs also feed correlation
  TimeSeries guilty_usage; // co-resident batch task: busy exactly when it hurts
  TimeSeries innocent_usage;

  bool anomaly = false;
  double threshold = 0.0;
  for (int minute = 8; minute < 16; ++minute) {
    const MicroTime now = minute * kMicrosPerMinute;
    const bool under_attack = minute >= 12;
    CpiSample sample;
    sample.jobname = "websearch";
    sample.task = "websearch.0";
    sample.timestamp = now;
    sample.cpu_usage = 0.6;
    sample.cpi = under_attack ? 3.1 : 1.8;  // interference doubles the CPI
    victim_cpi.Append(now, sample.cpi);
    guilty_usage.Append(now, under_attack ? 2.5 : 0.0);
    innocent_usage.Append(now, 0.8);  // steady the whole time

    // Detector state is keyed by a dense per-incarnation key (an Agent mints
    // one per AddTask); here there is one task, so key 0.
    const auto result = detector.Observe(/*key=*/0, sample, spec);
    threshold = result.threshold;
    if (result.anomaly) {
      anomaly = true;
      std::printf("minute %d: ANOMALY — cpi %.2f > threshold %.2f (3 violations in 5 min)\n",
                  minute, sample.cpi, result.threshold);
      break;
    }
    if (result.outlier) {
      std::printf("minute %d: outlier flagged (cpi %.2f > %.2f)\n", minute, sample.cpi,
                  result.threshold);
    }
  }
  if (!anomaly) {
    std::printf("no anomaly detected\n");
    return 1;
  }

  // --- 3. identify the antagonist -----------------------------------------
  // The suspect table is what an Agent keeps per machine: one row per
  // co-resident task, sorted by task name, pointing at stable name storage
  // and at each task's usage series.
  const std::string names[] = {"frontend.2", "mapreduce.7"};
  const std::string jobs[] = {"frontend", "mapreduce"};
  const std::vector<AntagonistIdentifier::SuspectRow> rows = {
      {&names[0], &jobs[0], WorkloadClass::kLatencySensitive, JobPriority::kProduction,
       &innocent_usage},
      {&names[1], &jobs[1], WorkloadClass::kBatch, JobPriority::kBestEffort, &guilty_usage},
  };
  AntagonistIdentifier identifier(params);
  std::vector<AntagonistIdentifier::RankedRef> refs;
  identifier.AnalyzeBatched(victim_cpi, threshold, rows, AntagonistIdentifier::kNoSkip,
                            15 * kMicrosPerMinute, &refs);
  std::vector<Suspect> ranked;
  for (const AntagonistIdentifier::RankedRef& ref : refs) {
    const AntagonistIdentifier::SuspectRow& row = rows[ref.row];
    ranked.push_back({*row.task, *row.jobname, row.workload_class, row.priority,
                      ref.correlation});
    std::printf("suspect %-14s (%-17s) correlation %+0.2f\n", row.task->c_str(),
                WorkloadClassName(row.workload_class), ref.correlation);
  }

  // --- 4. enforce -----------------------------------------------------------
  FakeCpuController controller;  // swap in FsCpuController("/sys/fs/cgroup") on a real host
  EnforcementPolicy enforcement(params, &controller);
  const auto decision = enforcement.OnIncident(WorkloadClass::kLatencySensitive, ranked,
                                               15 * kMicrosPerMinute);
  switch (decision.action) {
    case IncidentAction::kHardCap:
      std::printf("ACTION: hard-capped %s to %.2f CPU-sec/sec for 5 minutes (%s)\n",
                  decision.target.c_str(), decision.cap_level, decision.reason.c_str());
      break;
    default:
      std::printf("no action: %s\n", decision.reason.c_str());
      break;
  }
  return decision.action == IncidentAction::kHardCap ? 0 : 1;
}

}  // namespace

int main() { return Run(); }
