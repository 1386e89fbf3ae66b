// Determinism of the parallel tick engine: a seeded cluster scenario must
// produce bit-identical results for any thread count. Cross-machine effects
// (samples into the aggregator, incidents into the log, drop_rng_ draws) are
// buffered per machine and merged in machine order, so threads=1 and
// threads=4 runs may differ only in wall-clock time.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "harness/cluster_harness.h"
#include "tests/testing/forensics_oracle.h"
#include "tests/testing/scenario.h"
#include "util/string_util.h"
#include "workload/profiles.h"

namespace cpi2 {
namespace {

// Everything observable a run produces, serialized for exact comparison.
struct RunResult {
  int64_t samples_collected = 0;
  int64_t outliers = 0;
  int64_t anomalies = 0;
  int64_t incidents_reported = 0;
  std::vector<std::string> incidents;  // full sequence, in log order
  std::string victim_spec;
  std::string machine_state;  // per-machine counters after the run
  std::string health;         // degraded-mode counters (ClusterHealthReport)
  std::string forensics;      // post-run forensics query answers
  // Empty when the columnar index agreed with the reference scans.
  std::string forensics_oracle_mismatch;
};

// Every fault class at once, rates tuned so a 15-minute, 8-machine run sees
// several events of each kind.
FaultPlane::Options AllFaultsActive() {
  FaultPlane::Options faults;
  faults.agent_crash_per_tick = 0.0005;
  faults.agent_restart_delay = 10 * kMicrosPerSecond;
  faults.aggregator_outage_period = 5 * kMicrosPerMinute;
  faults.aggregator_outage_duration = 30 * kMicrosPerSecond;
  faults.aggregator_outage_phase = 2 * kMicrosPerMinute;
  faults.aggregator_crash_on_outage = true;
  faults.aggregator_checkpoint_interval = 1 * kMicrosPerMinute;
  faults.spec_push_loss_rate = 0.2;
  faults.spec_push_delay_rate = 0.2;
  faults.spec_push_duplicate_rate = 0.2;
  faults.spec_push_delay = 45 * kMicrosPerSecond;
  faults.sample_burst_per_tick = 0.001;
  faults.sample_burst_duration = 20 * kMicrosPerSecond;
  faults.ack_loss_rate = 0.05;
  faults.counter_zero_rate = 0.005;
  faults.counter_garbage_rate = 0.005;
  faults.counter_stuck_rate = 0.005;
  return faults;
}

std::string SerializeHealth(const ClusterHealthReport& health) {
  return StrFormat(
      "restarts=%lld enq=%lld del=%lld lost=%lld retries=%lld overflow=%lld "
      "rejects=%lld widen=%lld suppress=%lld crashes=%lld bursts=%lld "
      "outages=%lld push_lost=%lld push_delay=%lld push_dup=%lld acks_lost=%lld "
      "caps_cleared=%lld ckpts=%lld restores=%lld dups=%lld pushes=%lld glitches=%lld "
      "dropped=%lld decode_err=%lld corrupted=%lld",
      static_cast<long long>(health.agents.restarts),
      static_cast<long long>(health.agents.samples_enqueued),
      static_cast<long long>(health.agents.samples_delivered),
      static_cast<long long>(health.agents.samples_lost),
      static_cast<long long>(health.agents.delivery_retries),
      static_cast<long long>(health.agents.outbox_overflow_drops),
      static_cast<long long>(health.agents.counter_rejects),
      static_cast<long long>(health.agents.stale_spec_widenings),
      static_cast<long long>(health.agents.stale_spec_suppressions),
      static_cast<long long>(health.faults.agent_crashes),
      static_cast<long long>(health.faults.sample_bursts),
      static_cast<long long>(health.faults.aggregator_outages),
      static_cast<long long>(health.faults.spec_pushes_lost),
      static_cast<long long>(health.faults.spec_pushes_delayed),
      static_cast<long long>(health.faults.spec_pushes_duplicated),
      static_cast<long long>(health.faults.acks_lost),
      static_cast<long long>(health.caps_cleared_on_restart),
      static_cast<long long>(health.aggregator_checkpoints),
      static_cast<long long>(health.aggregator_restores),
      static_cast<long long>(health.duplicates_dropped),
      static_cast<long long>(health.spec_pushes_delivered),
      static_cast<long long>(health.counter_glitches_injected),
      static_cast<long long>(health.agents.series_points_dropped),
      static_cast<long long>(health.agents.wire_decode_errors),
      static_cast<long long>(health.faults.batches_corrupted));
}

// The operator queries a post-mortem would run, serialized exactly. Covers
// the columnar index end to end: posting lists, time bounds, ranking.
std::string SerializeForensics(const IncidentLog& log, MicroTime now) {
  std::string out;
  for (const IncidentLog::AntagonistStats& stats : log.TopAntagonists("", 0, 0, 5)) {
    out += StrFormat("top %s n=%d capped=%d max=%.17g mean=%.17g\n", stats.jobname.c_str(),
                     stats.incidents, stats.times_capped, stats.max_correlation,
                     stats.mean_correlation);
  }
  IncidentLog::Query query;
  query.begin = now / 2;
  query.capped_only = true;
  for (const Incident* incident : log.Select(query)) {
    out += StrFormat("capped t=%lld victim=%s target=%s\n",
                     static_cast<long long>(incident->timestamp),
                     incident->victim_job.c_str(), incident->action_target.c_str());
  }
  return out;
}

RunResult RunScenario(int threads, bool with_faults = false, int spec_shards = -1,
                      double wire_corrupt_rate = 0.0) {
  ClusterHarness::Options options;
  options.cluster.seed = 7;
  options.cluster.threads = threads;
  options.params = FastTestParams();
  if (spec_shards > 0) {
    options.params.spec_shards = spec_shards;
  }
  options.sample_drop_rate = 0.15;  // exercises the drop_rng_ merge path
  if (with_faults) {
    options.params.spec_staleness_ttl = 5 * kMicrosPerMinute;
    options.params.sample_dedup_window = 2 * kMicrosPerMinute;
    options.faults = AllFaultsActive();
  }
  options.faults.wire_corrupt_rate = wire_corrupt_rate;
  ClusterHarness harness(options);

  const int kMachines = 8;
  harness.cluster().AddMachines(ReferencePlatform(), kMachines);
  harness.cluster().BuildScheduler();
  for (int i = 0; i < kMachines; ++i) {
    Machine* machine = harness.cluster().machine(static_cast<size_t>(i));
    (void)machine->AddTask(StrFormat("websearch-leaf.%d", i), WebSearchLeafSpec());
    (void)machine->AddTask(StrFormat("filler-svc.%d", i), FillerServiceSpec(0.3));
    (void)machine->AddTask(StrFormat("filler-batch.%d", i), FillerBatchSpec(0.3));
  }
  harness.WireAgents();

  harness.PrimeSpecs(12 * kMicrosPerMinute);
  // Antagonists on two machines so incidents come from more than one shard.
  (void)harness.cluster().machine(0)->AddTask("video-processing.0", VideoProcessingSpec());
  (void)harness.cluster().machine(3)->AddTask("video-processing.3", VideoProcessingSpec());
  harness.RunFor(15 * kMicrosPerMinute);

  RunResult result;
  result.samples_collected = harness.samples_collected();
  result.machine_state = SerializeMachineState(harness.cluster());
  for (Machine* machine : harness.cluster().machines()) {
    Agent* agent = harness.agent(machine->name());
    result.outliers += agent->outliers_flagged();
    result.anomalies += agent->anomalies_detected();
    result.incidents_reported += agent->incidents_reported();
  }
  for (const Incident& incident : harness.incidents().incidents()) {
    result.incidents.push_back(SerializeIncident(incident));
  }
  const auto spec =
      harness.aggregator().GetSpec("websearch-leaf", ReferencePlatform().name);
  if (spec.has_value()) {
    result.victim_spec =
        StrFormat("n=%lld usage=%.17g mean=%.17g stddev=%.17g",
                  static_cast<long long>(spec->num_samples), spec->cpu_usage_mean,
                  spec->cpi_mean, spec->cpi_stddev);
  }
  result.health = SerializeHealth(harness.Health());
  result.forensics = SerializeForensics(harness.incidents(), harness.now());
  result.forensics_oracle_mismatch = ForensicsOracleMismatch(
      harness.incidents(), PostMortemQueries(harness.incidents(), harness.now()));
  return result;
}

TEST(ParallelDeterminismTest, FourThreadsMatchesSerialBitForBit) {
  const RunResult serial = RunScenario(/*threads=*/1);
  const RunResult parallel = RunScenario(/*threads=*/4);

  // The scenario must actually exercise the pipeline for the comparison to
  // mean anything.
  ASSERT_GT(serial.samples_collected, 0);
  ASSERT_FALSE(serial.victim_spec.empty());
  ASSERT_FALSE(serial.incidents.empty());

  EXPECT_EQ(serial.samples_collected, parallel.samples_collected);
  EXPECT_EQ(serial.outliers, parallel.outliers);
  EXPECT_EQ(serial.anomalies, parallel.anomalies);
  EXPECT_EQ(serial.incidents_reported, parallel.incidents_reported);
  EXPECT_EQ(serial.victim_spec, parallel.victim_spec);
  EXPECT_EQ(serial.machine_state, parallel.machine_state);
  ASSERT_EQ(serial.incidents.size(), parallel.incidents.size());
  for (size_t i = 0; i < serial.incidents.size(); ++i) {
    EXPECT_EQ(serial.incidents[i], parallel.incidents[i]) << "incident " << i;
  }
}

TEST(ParallelDeterminismTest, HardwareConcurrencyMatchesSerial) {
  const RunResult serial = RunScenario(/*threads=*/1);
  const RunResult parallel = RunScenario(/*threads=*/0);  // hardware concurrency
  EXPECT_EQ(serial.samples_collected, parallel.samples_collected);
  EXPECT_EQ(serial.victim_spec, parallel.victim_spec);
  EXPECT_EQ(serial.machine_state, parallel.machine_state);
  EXPECT_EQ(serial.incidents, parallel.incidents);
}

TEST(ParallelDeterminismTest, ActiveFaultsStayBitIdenticalAcrossThreadCounts) {
  // The fault plane draws only in the serial phases (BeginTick in machine
  // order, per-sample draws in the merge phase) or in machine-private
  // streams, so even a run riddled with crashes, outages, bursts, spec-push
  // faults and counter glitches must be bit-identical for any thread count.
  const RunResult serial = RunScenario(/*threads=*/1, /*with_faults=*/true);
  const RunResult parallel = RunScenario(/*threads=*/4, /*with_faults=*/true);

  // The faults must actually fire for the comparison to mean anything.
  ASSERT_GT(serial.samples_collected, 0);
  ASSERT_EQ(serial.health.find("crashes=0 "), std::string::npos) << serial.health;
  ASSERT_EQ(serial.health.find("outages=0 "), std::string::npos) << serial.health;

  EXPECT_EQ(serial.samples_collected, parallel.samples_collected);
  EXPECT_EQ(serial.outliers, parallel.outliers);
  EXPECT_EQ(serial.anomalies, parallel.anomalies);
  EXPECT_EQ(serial.incidents_reported, parallel.incidents_reported);
  EXPECT_EQ(serial.victim_spec, parallel.victim_spec);
  EXPECT_EQ(serial.machine_state, parallel.machine_state);
  EXPECT_EQ(serial.health, parallel.health);
  EXPECT_EQ(serial.incidents, parallel.incidents);

  const RunResult hw = RunScenario(/*threads=*/0, /*with_faults=*/true);
  EXPECT_EQ(serial.machine_state, hw.machine_state);
  EXPECT_EQ(serial.health, hw.health);
  EXPECT_EQ(serial.incidents, hw.incidents);
}

TEST(ParallelDeterminismTest, SpecShardCountChangesNothingObservable) {
  // The sharded aggregation contract: specs, push order, downstream
  // incidents, health counters and fault-RNG draws are bit-identical for
  // any spec_shards value. The clean scenario proves it on a run that
  // actually builds specs and fires incidents; the faulted scenario adds
  // checkpoint blobs and restores into the mix.
  const RunResult baseline = RunScenario(/*threads=*/4, /*with_faults=*/false,
                                         /*spec_shards=*/1);
  ASSERT_FALSE(baseline.victim_spec.empty());
  ASSERT_FALSE(baseline.incidents.empty());
  ASSERT_FALSE(baseline.forensics.empty());

  for (const int shards : {5, 8, 32}) {
    const RunResult sharded = RunScenario(/*threads=*/4, /*with_faults=*/false,
                                          shards);
    EXPECT_EQ(baseline.samples_collected, sharded.samples_collected) << shards;
    EXPECT_EQ(baseline.victim_spec, sharded.victim_spec) << shards;
    EXPECT_EQ(baseline.machine_state, sharded.machine_state) << shards;
    EXPECT_EQ(baseline.health, sharded.health) << shards;
    EXPECT_EQ(baseline.incidents, sharded.incidents) << shards;
    EXPECT_EQ(baseline.forensics, sharded.forensics) << shards;
  }

  // Under active faults the run exercises checkpoint/restore; every
  // observable must still be shard-count-invariant, and serial must match
  // parallel at a non-default shard count.
  const RunResult faulted_one = RunScenario(/*threads=*/4, /*with_faults=*/true,
                                            /*spec_shards=*/1);
  const RunResult faulted_serial = RunScenario(/*threads=*/1, /*with_faults=*/true,
                                               /*spec_shards=*/5);
  const RunResult faulted_parallel = RunScenario(/*threads=*/4, /*with_faults=*/true,
                                                 /*spec_shards=*/5);
  EXPECT_EQ(faulted_one.machine_state, faulted_parallel.machine_state);
  EXPECT_EQ(faulted_one.health, faulted_parallel.health);
  EXPECT_EQ(faulted_one.incidents, faulted_parallel.incidents);
  EXPECT_EQ(faulted_one.forensics, faulted_parallel.forensics);
  EXPECT_EQ(faulted_serial.machine_state, faulted_parallel.machine_state);
  EXPECT_EQ(faulted_serial.health, faulted_parallel.health);
  EXPECT_EQ(faulted_serial.incidents, faulted_parallel.incidents);
  EXPECT_EQ(faulted_serial.forensics, faulted_parallel.forensics);
}

TEST(ParallelDeterminismTest, LegacyForensicsPathMatchesColumnar) {
  // The columnar forensics index must answer exactly as the reference scans
  // (SelectLegacy, TopAntagonistsLegacy) over a query mix by job, machine
  // and time window, on the incident log of a clean run and of a run under
  // full fault load. (The staleness policy suppresses most detection in the
  // faulted scenario; IdentificationStormTest runs the same check on a
  // faulted log with many incidents.)
  const RunResult clean = RunScenario(/*threads=*/4, /*with_faults=*/false);
  ASSERT_FALSE(clean.incidents.empty());
  EXPECT_EQ(clean.forensics_oracle_mismatch, "");
  const RunResult faulted = RunScenario(/*threads=*/4, /*with_faults=*/true);
  EXPECT_EQ(faulted.forensics_oracle_mismatch, "");
}

TEST(ParallelDeterminismTest, WireCorruptionIsSurfacedAndDeterministic) {
  // With wire_corrupt_rate active, some batches arrive undecodable: the
  // receiver must drop them (counted in batches_corrupted on the injection
  // side and wire_decode_errors on the agent side), never crash, and the
  // whole run must stay bit-identical across thread counts.
  const RunResult serial = RunScenario(/*threads=*/1, /*with_faults=*/true,
                                       /*spec_shards=*/-1, /*wire_corrupt_rate=*/0.05);
  ASSERT_GT(serial.samples_collected, 0);
  // The corruption must actually fire and be surfaced through health.
  EXPECT_EQ(serial.health.find("decode_err=0 "), std::string::npos) << serial.health;
  EXPECT_EQ(serial.health.find("corrupted=0"), std::string::npos) << serial.health;

  const RunResult parallel = RunScenario(/*threads=*/4, /*with_faults=*/true,
                                         /*spec_shards=*/-1, /*wire_corrupt_rate=*/0.05);
  EXPECT_EQ(serial.samples_collected, parallel.samples_collected);
  EXPECT_EQ(serial.victim_spec, parallel.victim_spec);
  EXPECT_EQ(serial.machine_state, parallel.machine_state);
  EXPECT_EQ(serial.health, parallel.health);
  EXPECT_EQ(serial.incidents, parallel.incidents);
  EXPECT_EQ(serial.forensics, parallel.forensics);
}

TEST(ParallelDeterminismTest, RepeatedRunsAreStable) {
  // Same thread count twice: guards against nondeterminism that the
  // serial-vs-parallel comparison could mask (e.g. time-seeded RNGs).
  const RunResult a = RunScenario(/*threads=*/4);
  const RunResult b = RunScenario(/*threads=*/4);
  EXPECT_EQ(a.samples_collected, b.samples_collected);
  EXPECT_EQ(a.incidents, b.incidents);
  EXPECT_EQ(a.victim_spec, b.victim_spec);
  EXPECT_EQ(a.machine_state, b.machine_state);
}

}  // namespace
}  // namespace cpi2
