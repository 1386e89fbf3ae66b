// The batched identification engine under an anomaly storm: many victims on
// one machine scored back-to-back against 100-400 co-resident suspects.
//
// Legacy timed unit = what the agent's retired per-suspect branch did per
// victim: rebuild a SuspectInput vector (four string copies per co-resident
// task) and run the per-suspect reference ranking (ReferenceAnalyze from
// tests/testing/reference_correlation.h, which materializes a Suspect — two
// more strings — per scored task). Batched timed unit = AnalyzeBatched() over
// the persistent interned table — the complete analysis; Suspect strings are
// materialized only when an incident is built, and that cost is reported
// separately as per-incident latency. Task names are deliberately longer
// than any SSO buffer so the legacy rebuild pays real allocations, exactly
// as agents with production-shaped task names do.
//
// Series are paper-shaped: usage and CPI sampled once a MINUTE over the
// 10-minute correlation window (the shape the Agent actually retains), so a
// suspect contributes ~20 points — the regime a real storm runs in, where
// per-suspect fixed costs (string rebuilds, window lookups, cursor setup)
// dominate over the correlation arithmetic. bench_antagonist_scale covers
// the dense 1 Hz shape where arithmetic dominates.
//
// Each cell first proves the two engines bit-identical on its inputs (every
// victim, every suspect, raw doubles), then times both. Exits nonzero if any
// cell diverges, or (non-smoke) if the 200-suspect storm speedup falls below
// 5x. Writes BENCH_identification_storm.json unless --smoke.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <map>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "bench/common/report.h"
#include "core/antagonist_identifier.h"
#include "tests/testing/reference_correlation.h"
#include "util/logging.h"
#include "util/string_util.h"
#include "util/time_series.h"

namespace cpi2 {
namespace {

constexpr MicroTime kSamplePeriod = kMicrosPerMinute;  // paper: 1 sample/min
constexpr int kVictims = 8;                   // storm width: victims per tick
constexpr double kRequiredSpeedupAt200 = 5.0;

struct Cell {
  int suspects = 0;
  double legacy_per_sec = 0.0;
  double batched_per_sec = 0.0;
  double speedup = 0.0;
  double incident_latency_us = 0.0;  // AnalyzeBatched + Suspect materialization
  bool identical = false;
};

// Victim CPI oscillating around the threshold so both correlation branches
// fire; each victim of the storm gets its own phase.
TimeSeries MakeVictim(MicroTime retain, int index) {
  TimeSeries series;
  for (MicroTime t = 0; t < retain; t += kSamplePeriod) {
    const double phase = static_cast<double>(t / kSamplePeriod) + 11.0 * index;
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

// The agent's task registry and series store, shaped exactly like
// Agent::tasks_ / Agent::series_: a name-keyed node map plus a hash map of
// series. Both engines are fed from this, like the real HandleAnomaly.
struct TaskMeta {
  std::string jobname;
  uint64_t series_id = 0;
};
struct AgentTables {
  std::map<std::string, TaskMeta> tasks;
  std::unordered_map<uint64_t, TimeSeries> series;
};

// The legacy branch's per-victim work, verbatim from the retired
// HandleAnomaly reference path: walk the task map, hash-find each series,
// copy the strings into a fresh SuspectInput vector, then rank per suspect.
std::vector<Suspect> LegacyAnalysis(const Cpi2Params& params, const TimeSeries& victim,
                                    const std::string& victim_task, const AgentTables& tables,
                                    MicroTime now) {
  std::vector<SuspectInput> inputs;
  inputs.reserve(tables.tasks.size());
  for (const auto& [task, meta] : tables.tasks) {
    if (task == victim_task) {
      continue;
    }
    const auto series_it = tables.series.find(meta.series_id);
    if (series_it == tables.series.end()) {
      continue;
    }
    SuspectInput input;
    input.task = task;
    input.jobname = meta.jobname;
    input.workload_class = WorkloadClass::kBatch;
    input.priority = JobPriority::kBestEffort;
    input.usage = &series_it->second;
    inputs.push_back(input);
  }
  return ReferenceAnalyze(params, victim, /*cpi_threshold=*/2.0, inputs, now);
}

// The batched branch's incident materialization, verbatim from the agent.
std::vector<Suspect> Materialize(const std::vector<AntagonistIdentifier::SuspectRow>& rows,
                                 const std::vector<AntagonistIdentifier::RankedRef>& ranked) {
  std::vector<Suspect> out;
  out.reserve(ranked.size());
  for (const AntagonistIdentifier::RankedRef& ref : ranked) {
    const AntagonistIdentifier::SuspectRow& row = rows[ref.row];
    out.push_back(
        {*row.task, *row.jobname, row.workload_class, row.priority, ref.correlation});
  }
  return out;
}

Cell RunCell(int suspects, bool smoke) {
  const MicroTime window = Cpi2Params{}.correlation_window;
  const MicroTime retain = 2 * window;  // Agent trims at now - 2 * window
  const MicroTime now = retain - 1;

  std::vector<TimeSeries> victims;
  victims.reserve(kVictims);
  for (int v = 0; v < kVictims; ++v) {
    victims.push_back(MakeVictim(retain, v));
  }
  AgentTables tables;
  for (int i = 0; i < suspects; ++i) {
    // Task names longer than any SSO buffer so the legacy rebuild pays real
    // allocations; zero-padded so map order == numeric order.
    const uint64_t series_id = static_cast<uint64_t>(i);
    TaskMeta meta;
    meta.jobname = StrFormat("storm-cell-production-service-job-%06d", i);
    meta.series_id = series_id;
    tables.tasks.emplace(StrFormat("storm-cell-production-service-task.%06d.replica", i),
                         std::move(meta));
    tables.series.emplace(series_id, MakeSuspect(retain, i));
  }
  // The persistent interned table, built exactly as RebuildSuspectTableIfStale
  // builds it: pointers into the map nodes and the series store.
  std::vector<AntagonistIdentifier::SuspectRow> rows;
  rows.reserve(suspects);
  for (const auto& [task, meta] : tables.tasks) {
    AntagonistIdentifier::SuspectRow row;
    row.task = &task;
    row.jobname = &meta.jobname;
    row.workload_class = WorkloadClass::kBatch;
    row.priority = JobPriority::kBestEffort;
    row.usage = &tables.series.at(meta.series_id);
    rows.push_back(row);
  }

  // The victim-name skip compare the deleted branch ran against every map
  // key; shaped like the co-residents so the compares walk the shared prefix.
  const std::string victim_task = "storm-cell-production-service-task.victim.replica";

  Cpi2Params params;
  params.sample_period = kSamplePeriod;
  AntagonistIdentifier batched(params);

  Cell cell;
  cell.suspects = suspects;

  // Bit-identity across the whole storm before timing anything: every
  // victim's ranking, task by task, correlation double by double.
  std::vector<AntagonistIdentifier::RankedRef> ranked;
  cell.identical = true;
  for (const TimeSeries& victim : victims) {
    batched.AnalyzeBatched(victim, 2.0, rows, AntagonistIdentifier::kNoSkip, now, &ranked);
    const std::vector<Suspect> batched_suspects = Materialize(rows, ranked);
    const std::vector<Suspect> legacy_suspects =
        LegacyAnalysis(params, victim, victim_task, tables, now);
    cell.identical = cell.identical &&
                     batched_suspects.size() == legacy_suspects.size() &&
                     !batched_suspects.empty();
    for (size_t i = 0; cell.identical && i < batched_suspects.size(); ++i) {
      cell.identical = batched_suspects[i].task == legacy_suspects[i].task &&
                       batched_suspects[i].correlation == legacy_suspects[i].correlation;
    }
  }

  // Noise-robust timing for a shared core: each unit of work runs `batches`
  // SHORT batches and is scored by its best batch. One long averaged window
  // absorbs every descheduling and frequency dip that lands inside it; the
  // best batch is the closest observation of the true per-analysis cost.
  // The three units' batches are interleaved round-robin so background load
  // hits them evenly instead of biasing whichever ran last.
  const int batches = smoke ? 2 : 12;
  const double batch_seconds = smoke ? 0.002 : 0.01;

  // Legacy: rebuild + Analyze per victim, round-robin over the storm.
  int legacy_rep = 0;
  const auto legacy_once = [&]() {
    volatile size_t sink =
        LegacyAnalysis(params, victims[legacy_rep % kVictims], victim_task, tables, now)
            .size();
    (void)sink;
    ++legacy_rep;
  };
  // Batched: AnalyzeBatched per victim over the SAME table and scratch —
  // the complete analysis on the interned representation.
  int batched_rep = 0;
  const auto batched_once = [&]() {
    batched.AnalyzeBatched(victims[batched_rep % kVictims], 2.0, rows,
                           AntagonistIdentifier::kNoSkip, now, &ranked);
    volatile size_t sink = ranked.size();
    (void)sink;
    ++batched_rep;
  };
  // Per-incident latency: the full batched incident path (analysis plus
  // Suspect materialization), what a victim actually waits for.
  int incident_rep = 0;
  const auto incident_once = [&]() {
    batched.AnalyzeBatched(victims[incident_rep % kVictims], 2.0, rows,
                           AntagonistIdentifier::kNoSkip, now, &ranked);
    volatile size_t sink = Materialize(rows, ranked).size();
    (void)sink;
    ++incident_rep;
  };

  const auto timed_batch = [](const auto& once, int reps) {
    const auto start = std::chrono::steady_clock::now();
    for (int r = 0; r < reps; ++r) {
      once();
    }
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count() /
           reps;
  };
  // One measured rep (doubles as warmup) decides how many reps fill a batch.
  const auto calibrate = [&](const auto& once) {
    const double one_rep = timed_batch(once, 1);
    const double reps = one_rep > 0.0 ? batch_seconds / one_rep : 1000.0;
    return reps < 1.0 ? 1 : reps > 100000.0 ? 100000 : static_cast<int>(reps);
  };
  const int legacy_reps = calibrate(legacy_once);
  const int batched_reps = calibrate(batched_once);
  const int incident_reps = calibrate(incident_once);

  double legacy_best = 1e300;
  double batched_best = 1e300;
  double incident_best = 1e300;
  for (int b = 0; b < batches; ++b) {
    legacy_best = std::min(legacy_best, timed_batch(legacy_once, legacy_reps));
    batched_best = std::min(batched_best, timed_batch(batched_once, batched_reps));
    incident_best = std::min(incident_best, timed_batch(incident_once, incident_reps));
  }
  cell.legacy_per_sec = 1.0 / legacy_best;
  cell.batched_per_sec = 1.0 / batched_best;
  cell.speedup = cell.legacy_per_sec > 0.0 ? cell.batched_per_sec / cell.legacy_per_sec : 0.0;
  cell.incident_latency_us = incident_best * 1e6;
  return cell;
}

int Main(bool smoke) {
  SetMinLogLevel(LogLevel::kWarning);
  PrintHeader("identification_storm",
              "Batched one-pass identification engine vs per-suspect rebuild+Analyze: "
              "multi-victim anomaly storm over 100-400 co-resident suspects");
  PrintPaperClaim("(engineering benchmark, no paper counterpart: section 4.2 caps "
                  "analyses at 1/sec/machine; this measures how many more co-residents "
                  "one analysis can afford under that cap)");

  const std::vector<int> suspect_counts =
      smoke ? std::vector<int>{16} : std::vector<int>{100, 200, 400};

  std::vector<Cell> cells;
  bool all_identical = true;
  double speedup_200 = 0.0;
  for (int suspects : suspect_counts) {
    cells.push_back(RunCell(suspects, smoke));
    const Cell& cell = cells.back();
    all_identical = all_identical && cell.identical;
    if (cell.suspects == 200) {
      speedup_200 = cell.speedup;
    }
    PrintResult(StrFormat("legacy_analyses_per_sec_s%d", cell.suspects), cell.legacy_per_sec);
    PrintResult(StrFormat("batched_analyses_per_sec_s%d", cell.suspects),
                cell.batched_per_sec);
    PrintResult(StrFormat("speedup_s%d", cell.suspects), cell.speedup);
    PrintResult(StrFormat("incident_latency_us_s%d", cell.suspects),
                cell.incident_latency_us);
    if (!cell.identical) {
      PrintResult(StrFormat("BIT_IDENTITY_FAILED_s%d", cell.suspects), 1.0);
    }
  }

  std::string json = StrFormat(
      "{\"bench\":\"identification_storm\",\"identical\":%s,\"victims\":%d,"
      "\"speedup_200\":%.2f,\"cells\":[",
      all_identical ? "true" : "false", kVictims, speedup_200);
  for (size_t i = 0; i < cells.size(); ++i) {
    const Cell& cell = cells[i];
    json += StrFormat(
        "%s{\"suspects\":%d,\"legacy_per_sec\":%.1f,\"batched_per_sec\":%.1f,"
        "\"speedup\":%.2f,\"incident_latency_us\":%.2f}",
        i == 0 ? "" : ",", cell.suspects, cell.legacy_per_sec, cell.batched_per_sec,
        cell.speedup, cell.incident_latency_us);
  }
  json += "]}";

  std::printf("%s\n", json.c_str());
  if (!smoke) {
    // Smoke shapes are not comparable across PRs; don't overwrite the record.
    if (FILE* f = std::fopen("BENCH_identification_storm.json", "w"); f != nullptr) {
      std::fprintf(f, "%s\n", json.c_str());
      std::fclose(f);
    }
  }
  if (!all_identical) {
    std::fprintf(stderr, "FATAL: batched engine diverged from per-suspect reference\n");
    return 1;
  }
  if (!smoke && speedup_200 < kRequiredSpeedupAt200) {
    std::fprintf(stderr, "FATAL: storm speedup at 200 suspects %.2fx below required %.1fx\n",
                 speedup_200, kRequiredSpeedupAt200);
    return 1;
  }
  return 0;
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
