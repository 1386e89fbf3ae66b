// Anomaly-storm determinism for the batched identification engine.
//
// With the per-machine analysis rate limiter disabled
// (params.analysis_interval = 0), every co-anomalous victim on a machine is
// analyzed within the SAME sampling period. The batched engine then
// re-scores victim after victim against ONE persistent suspect table and
// ONE scratch — the exact steady state DESIGN.md §17 promises allocates
// nothing. The storm must replay bit for bit at every thread count, clean
// and under an active fault plane (agent crash/restart wipes the table
// mid-storm, counter glitches feed garbage series into the analyses). The
// rankings themselves are checked against the per-suspect reference at
// incident time by AgentTest.IncidentRankingsMatchReferenceAcrossChurnAndRestart.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "harness/cluster_harness.h"
#include "tests/testing/forensics_oracle.h"
#include "tests/testing/scenario.h"
#include "util/string_util.h"
#include "workload/profiles.h"

namespace cpi2 {
namespace {

struct StormResult {
  int64_t samples_collected = 0;
  int64_t outliers = 0;
  int64_t anomalies = 0;
  int64_t incidents_reported = 0;
  // Largest number of incidents one machine reported inside one sampling
  // period: >1 means a genuine storm — several victims ran full
  // identification passes back-to-back against the same suspect table and
  // scratch, where the paper's 1-analysis/sec limiter would have allowed a
  // single one. (Sampler windows are deliberately staggered per task, so
  // storm incidents land on neighboring timestamps, not one shared tick.)
  int64_t max_incidents_one_period = 0;
  std::vector<std::string> incidents;
  std::string machine_state;
  std::string health;
  std::string forensics;
  // Empty when the columnar forensics index agreed with the reference scans.
  std::string forensics_oracle_mismatch;
};

// Agent crashes and counter glitches only: the two fault classes that stress
// the suspect table hardest (restart invalidates every interned row; glitches
// distort the series the rows point at).
FaultPlane::Options StormFaults() {
  FaultPlane::Options faults;
  faults.agent_crash_per_tick = 0.001;
  faults.agent_restart_delay = 10 * kMicrosPerSecond;
  faults.counter_zero_rate = 0.005;
  faults.counter_garbage_rate = 0.005;
  faults.counter_stuck_rate = 0.005;
  return faults;
}

std::string SerializeHealth(const ClusterHealthReport& health) {
  return StrFormat("restarts=%lld enq=%lld del=%lld lost=%lld rejects=%lld "
                   "crashes=%lld caps_cleared=%lld glitches=%lld",
                   static_cast<long long>(health.agents.restarts),
                   static_cast<long long>(health.agents.samples_enqueued),
                   static_cast<long long>(health.agents.samples_delivered),
                   static_cast<long long>(health.agents.samples_lost),
                   static_cast<long long>(health.agents.counter_rejects),
                   static_cast<long long>(health.faults.agent_crashes),
                   static_cast<long long>(health.caps_cleared_on_restart),
                   static_cast<long long>(health.counter_glitches_injected));
}

std::string SerializeForensics(const IncidentLog& log) {
  std::string out;
  for (const IncidentLog::AntagonistStats& stats : log.TopAntagonists("", 0, 0, 5)) {
    out += StrFormat("top %s n=%d capped=%d max=%.17g mean=%.17g\n", stats.jobname.c_str(),
                     stats.incidents, stats.times_capped, stats.max_correlation,
                     stats.mean_correlation);
  }
  return out;
}

// A storm scenario: 4 machines, each packed with FIVE tasks of the same
// latency-sensitive victim job plus fillers, an antagonist dropped on two of
// them after priming. When the antagonist fires, all five co-resident
// victims go anomalous within the same sampling period, and with the rate
// limiter off every one of those anomalies runs a full identification pass.
StormResult RunStorm(int threads, bool with_faults) {
  ClusterHarness::Options options;
  options.cluster.seed = 11;
  options.cluster.threads = threads;
  options.params = FastTestParams();
  options.params.analysis_interval = 0;  // storms: no 1/sec analysis limit
  // Keep the antagonist UNCAPPED: with enforcement on, the first incident
  // hard-caps it, the co-victims recover, and the storm fizzles at one
  // incident per tick. Uncapped, every already-anomalous victim re-confirms
  // on each sampling tick — a sustained same-tick multi-victim storm.
  options.params.enforcement_enabled = false;
  if (with_faults) {
    options.params.spec_staleness_ttl = 5 * kMicrosPerMinute;
    options.faults = StormFaults();
  }
  ClusterHarness harness(options);

  const int kMachines = 4;
  const int kVictimsPerMachine = 5;
  harness.cluster().AddMachines(ReferencePlatform(), kMachines);
  harness.cluster().BuildScheduler();
  for (int m = 0; m < kMachines; ++m) {
    Machine* machine = harness.cluster().machine(static_cast<size_t>(m));
    for (int v = 0; v < kVictimsPerMachine; ++v) {
      (void)machine->AddTask(StrFormat("websearch-leaf.%d-%d", m, v), WebSearchLeafSpec());
    }
    (void)machine->AddTask(StrFormat("filler-svc.%d", m), FillerServiceSpec(0.3));
    (void)machine->AddTask(StrFormat("filler-batch.%d", m), FillerBatchSpec(0.3));
  }
  harness.WireAgents();

  harness.PrimeSpecs(12 * kMicrosPerMinute);
  (void)harness.cluster().machine(0)->AddTask("video-processing.0", VideoProcessingSpec());
  (void)harness.cluster().machine(2)->AddTask("video-processing.2", VideoProcessingSpec());
  harness.RunFor(12 * kMicrosPerMinute);

  StormResult result;
  result.samples_collected = harness.samples_collected();
  result.machine_state = SerializeMachineState(harness.cluster());
  for (Machine* machine : harness.cluster().machines()) {
    Agent* agent = harness.agent(machine->name());
    result.outliers += agent->outliers_flagged();
    result.anomalies += agent->anomalies_detected();
    result.incidents_reported += agent->incidents_reported();
  }
  std::map<std::pair<std::string, MicroTime>, int64_t> per_period;
  const MicroTime period = options.params.sample_period;
  for (const Incident& incident : harness.incidents().incidents()) {
    result.incidents.push_back(SerializeIncident(incident));
    const int64_t count = ++per_period[{incident.machine, incident.timestamp / period}];
    result.max_incidents_one_period = std::max(result.max_incidents_one_period, count);
  }
  result.health = SerializeHealth(harness.Health());
  result.forensics = SerializeForensics(harness.incidents());
  result.forensics_oracle_mismatch = ForensicsOracleMismatch(
      harness.incidents(), PostMortemQueries(harness.incidents(), harness.now()));
  return result;
}

void ExpectSameRun(const StormResult& a, const StormResult& b, const char* label) {
  EXPECT_EQ(a.samples_collected, b.samples_collected) << label;
  EXPECT_EQ(a.outliers, b.outliers) << label;
  EXPECT_EQ(a.anomalies, b.anomalies) << label;
  EXPECT_EQ(a.incidents_reported, b.incidents_reported) << label;
  EXPECT_EQ(a.max_incidents_one_period, b.max_incidents_one_period) << label;
  EXPECT_EQ(a.machine_state, b.machine_state) << label;
  EXPECT_EQ(a.health, b.health) << label;
  EXPECT_EQ(a.forensics, b.forensics) << label;
  ASSERT_EQ(a.incidents.size(), b.incidents.size()) << label;
  for (size_t i = 0; i < a.incidents.size(); ++i) {
    EXPECT_EQ(a.incidents[i], b.incidents[i]) << label << " incident " << i;
  }
}

TEST(IdentificationStormTest, CleanStormIsBitIdenticalAcrossEnginesAndThreads) {
  const StormResult batched = RunStorm(/*threads=*/1, /*with_faults=*/false);
  // The storm must actually fire: several victims analyzed in one tick, so
  // the table/scratch reuse across victims is really exercised.
  ASSERT_GT(batched.samples_collected, 0);
  ASSERT_FALSE(batched.incidents.empty());
  ASSERT_GE(batched.max_incidents_one_period, 2)
      << "scenario never produced a same-tick multi-victim storm";
  EXPECT_EQ(batched.forensics_oracle_mismatch, "");

  for (const int threads : {1, 2, 4, 0}) {
    const StormResult rerun = RunStorm(threads, /*with_faults=*/false);
    ExpectSameRun(batched, rerun, StrFormat("threads=%d", threads).c_str());
  }
}

TEST(IdentificationStormTest, FaultedStormIsBitIdenticalAcrossEnginesAndThreads) {
  const StormResult batched = RunStorm(/*threads=*/1, /*with_faults=*/true);
  ASSERT_GT(batched.samples_collected, 0);
  ASSERT_FALSE(batched.incidents.empty());
  ASSERT_GE(batched.max_incidents_one_period, 2)
      << "faulted scenario never produced a same-tick multi-victim storm";
  // The faults must actually fire: crashes invalidate the interned suspect
  // table (membership-version bump on restart), glitches distort the series
  // behind the cached pointers.
  ASSERT_EQ(batched.health.find("crashes=0 "), std::string::npos) << batched.health;
  ASSERT_EQ(batched.health.find("glitches=0"), std::string::npos) << batched.health;
  EXPECT_EQ(batched.forensics_oracle_mismatch, "");

  for (const int threads : {1, 2, 4, 0}) {
    const StormResult rerun = RunStorm(threads, /*with_faults=*/true);
    ExpectSameRun(batched, rerun, StrFormat("threads=%d", threads).c_str());
  }
}

}  // namespace
}  // namespace cpi2
