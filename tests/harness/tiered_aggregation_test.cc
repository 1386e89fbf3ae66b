// The tiered control plane's two contracts, at full-harness scale
// (DESIGN.md §16):
//
//  1. ParallelDeterminismTest gate — a tiered run is bit-identical for ANY
//     cell count and ANY thread count, clean and under the full fault
//     matrix. This is the property the integer sketch (stats/sketch.h),
//     global dedup, and hash-based task identity were built to hold.
//  2. Flat equivalence — the tiered path produces the same spec key set,
//     the same num_samples, and the same values up to sketch quantization
//     (~2^-20 relative) as the flat Aggregator on the identical scenario.
//
// TieredAggregationTest covers the behaviors that have no flat analogue:
// subscription fan-out, restart resubscription, dead-cell rollups, and the
// CPI2HAG1 checkpoint.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/cell_aggregator.h"
#include "harness/cluster_harness.h"
#include "tests/testing/scenario.h"
#include "util/string_util.h"
#include "workload/profiles.h"

namespace cpi2 {
namespace {

// The jobs RunTiered() deploys; video-processing never reaches the
// min_tasks_for_spec floor, so it must never appear as a spec.
const char* const kSpecJobs[] = {"websearch-leaf", "filler-service", "filler-batch"};

struct RunResult {
  int64_t samples_collected = 0;
  int64_t outliers = 0;
  int64_t anomalies = 0;
  int64_t incidents_reported = 0;
  int64_t spec_pushes_delivered = 0;
  std::vector<std::string> incidents;            // full %.17g serialization
  std::vector<std::string> incidents_structural; // doubles omitted
  std::string specs_exact;      // every spec, %.17g — for tiered-vs-tiered
  std::string spec_keys;        // (job, n) only — exact across paths
  std::vector<CpiSpec> specs;   // for tolerance comparisons across paths
  std::string machine_state;
  std::string health;           // counters minus pushes and tier rollups
};

// The quantization-proof view of an incident: everything but the doubles,
// which differ between the flat and tiered paths in the last bits of the
// spec-derived thresholds.
std::string SerializeStructural(const Incident& incident) {
  std::string out = StrFormat("t=%lld m=%s victim=%s action=%d target=%s",
                              static_cast<long long>(incident.timestamp),
                              incident.machine.c_str(), incident.victim_task.c_str(),
                              static_cast<int>(incident.action), incident.action_target.c_str());
  for (const Suspect& suspect : incident.suspects) {
    out += " " + suspect.task;
  }
  return out;
}

// Everything in ClusterHealthReport EXCEPT spec_pushes_delivered (broadcast
// and subscription fan-out legitimately deliver different counts) and the
// tier rollups (they describe the cell topology, not the workload).
std::string SerializeHealthCore(const ClusterHealthReport& health) {
  return StrFormat(
      "restarts=%lld enq=%lld del=%lld lost=%lld retries=%lld overflow=%lld "
      "rejects=%lld widen=%lld suppress=%lld crashes=%lld bursts=%lld "
      "outages=%lld push_lost=%lld push_delay=%lld push_dup=%lld acks_lost=%lld "
      "caps_cleared=%lld ckpts=%lld restores=%lld dups=%lld glitches=%lld "
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
      static_cast<long long>(health.counter_glitches_injected),
      static_cast<long long>(health.agents.series_points_dropped),
      static_cast<long long>(health.agents.wire_decode_errors),
      static_cast<long long>(health.faults.batches_corrupted));
}

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

// The parallel_determinism_test scenario with a short spec_update_interval,
// so the 15-minute run rebuilds (and fans out) specs several times instead
// of only at priming. `cells` <= 0 selects the flat path.
RunResult RunTiered(int threads, int cells, bool with_faults) {
  ClusterHarness::Options options;
  options.cluster.seed = 7;
  options.cluster.threads = threads;
  options.params = FastTestParams();
  options.params.spec_update_interval = 5 * kMicrosPerMinute;
  // A 5-minute window holds ~4 samples per task after the 15% drop rate;
  // FastTestParams' floor of 5 would leave the final build specless.
  options.params.min_samples_per_task = 2;
  options.params.flat_aggregation_path = (cells <= 0);
  options.params.aggregation_cells = cells > 0 ? cells : 1;
  options.sample_drop_rate = 0.15;
  if (with_faults) {
    options.params.spec_staleness_ttl = 5 * kMicrosPerMinute;
    options.params.sample_dedup_window = 2 * kMicrosPerMinute;
    options.faults = AllFaultsActive();
  }
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
    result.incidents_structural.push_back(SerializeStructural(incident));
  }
  for (const char* job : kSpecJobs) {
    const auto spec = harness.GetSpec(job, ReferencePlatform().name);
    if (!spec.has_value()) {
      continue;
    }
    result.specs.push_back(*spec);
    result.spec_keys += StrFormat("%s n=%lld\n", job, static_cast<long long>(spec->num_samples));
    result.specs_exact +=
        StrFormat("%s n=%lld usage=%.17g mean=%.17g stddev=%.17g\n", job,
                  static_cast<long long>(spec->num_samples), spec->cpu_usage_mean,
                  spec->cpi_mean, spec->cpi_stddev);
  }
  EXPECT_FALSE(harness.GetSpec("video-processing", ReferencePlatform().name).has_value());
  const ClusterHealthReport health = harness.Health();
  result.spec_pushes_delivered = health.spec_pushes_delivered;
  result.health = SerializeHealthCore(health);
  return result;
}

void ExpectBitIdentical(const RunResult& a, const RunResult& b, const std::string& label) {
  EXPECT_EQ(a.samples_collected, b.samples_collected) << label;
  EXPECT_EQ(a.outliers, b.outliers) << label;
  EXPECT_EQ(a.anomalies, b.anomalies) << label;
  EXPECT_EQ(a.incidents_reported, b.incidents_reported) << label;
  EXPECT_EQ(a.spec_pushes_delivered, b.spec_pushes_delivered) << label;
  EXPECT_EQ(a.specs_exact, b.specs_exact) << label;
  EXPECT_EQ(a.machine_state, b.machine_state) << label;
  EXPECT_EQ(a.health, b.health) << label;
  EXPECT_EQ(a.incidents, b.incidents) << label;
}

TEST(ParallelDeterminismTest, TieredRunIsBitIdenticalForAnyCellAndThreadCount) {
  const RunResult baseline = RunTiered(/*threads=*/1, /*cells=*/1, /*with_faults=*/false);
  // The scenario must exercise the full tier: samples into cells, several
  // builds' worth of fan-out, incidents back out.
  ASSERT_GT(baseline.samples_collected, 0);
  ASSERT_FALSE(baseline.specs_exact.empty());
  ASSERT_FALSE(baseline.incidents.empty());
  ASSERT_GT(baseline.spec_pushes_delivered, 0);

  for (const int cells : {1, 4, 16}) {
    for (const int threads : {1, 2, 4, 0}) {
      if (cells == 1 && threads == 1) {
        continue;  // the baseline itself
      }
      const RunResult run = RunTiered(threads, cells, /*with_faults=*/false);
      ExpectBitIdentical(baseline, run,
                         StrFormat("cells=%d threads=%d", cells, threads));
    }
  }
}

TEST(ParallelDeterminismTest, TieredFaultMatrixIsBitIdenticalForAnyCellAndThreadCount) {
  const RunResult baseline = RunTiered(/*threads=*/1, /*cells=*/1, /*with_faults=*/true);
  ASSERT_GT(baseline.samples_collected, 0);
  // The faults must actually fire: crashes force resubscription, outages
  // force merger restores, push faults exercise the versioned catch-up.
  ASSERT_EQ(baseline.health.find("crashes=0 "), std::string::npos) << baseline.health;
  ASSERT_EQ(baseline.health.find("outages=0 "), std::string::npos) << baseline.health;

  for (const int cells : {1, 4, 16}) {
    for (const int threads : {1, 2, 4, 0}) {
      if (cells == 1 && threads == 1) {
        continue;
      }
      const RunResult run = RunTiered(threads, cells, /*with_faults=*/true);
      ExpectBitIdentical(baseline, run,
                         StrFormat("faulted cells=%d threads=%d", cells, threads));
    }
  }
}

// Spec values may differ between the paths by the sketch quantization step
// (2^-20 relative) amplified through the age-weighted history; 1e-4
// absolute on O(1) CPI values leaves two orders of magnitude of headroom.
constexpr double kSpecTolerance = 1e-4;

TEST(ParallelDeterminismTest, TieredMatchesFlatWithinQuantization) {
  const RunResult flat = RunTiered(/*threads=*/4, /*cells=*/0, /*with_faults=*/false);
  const RunResult tiered = RunTiered(/*threads=*/4, /*cells=*/4, /*with_faults=*/false);
  ASSERT_GT(flat.samples_collected, 0);
  ASSERT_FALSE(flat.specs.empty());

  // The sample path is identical, so the exact parts are exactly equal:
  // collected counts, dedup, the spec key set, and num_samples (the count
  // arithmetic never touches quantized values).
  EXPECT_EQ(flat.samples_collected, tiered.samples_collected);
  EXPECT_EQ(flat.spec_keys, tiered.spec_keys);
  ASSERT_EQ(flat.specs.size(), tiered.specs.size());
  for (size_t i = 0; i < flat.specs.size(); ++i) {
    EXPECT_EQ(flat.specs[i].num_samples, tiered.specs[i].num_samples) << i;
    EXPECT_NEAR(flat.specs[i].cpi_mean, tiered.specs[i].cpi_mean, kSpecTolerance) << i;
    EXPECT_NEAR(flat.specs[i].cpi_stddev, tiered.specs[i].cpi_stddev, kSpecTolerance) << i;
    EXPECT_NEAR(flat.specs[i].cpu_usage_mean, tiered.specs[i].cpu_usage_mean, kSpecTolerance)
        << i;
  }

  // Detection downstream sees thresholds that differ only in the last bits,
  // so the incident sequence is structurally identical (same ticks, same
  // victims, same actions, same suspects).
  EXPECT_EQ(flat.incidents_structural, tiered.incidents_structural);
  EXPECT_EQ(flat.health, tiered.health);
}

TEST(ParallelDeterminismTest, TieredMatchesFlatUnderFaults) {
  // Under the full fault matrix the two paths draw the identical fault-RNG
  // sequence (one draw set per spec push, same spec order per build), so
  // the sample pipeline stays exactly comparable. Delivery TIMING differs —
  // versioned catch-up redelivers where the flat path waits for the next
  // broadcast — so incidents and staleness counters are out of scope here;
  // the spec math itself must still agree.
  const RunResult flat = RunTiered(/*threads=*/4, /*cells=*/0, /*with_faults=*/true);
  const RunResult tiered = RunTiered(/*threads=*/4, /*cells=*/4, /*with_faults=*/true);
  ASSERT_GT(flat.samples_collected, 0);
  ASSERT_FALSE(flat.specs.empty());

  EXPECT_EQ(flat.spec_keys, tiered.spec_keys);
  ASSERT_EQ(flat.specs.size(), tiered.specs.size());
  for (size_t i = 0; i < flat.specs.size(); ++i) {
    EXPECT_EQ(flat.specs[i].num_samples, tiered.specs[i].num_samples) << i;
    EXPECT_NEAR(flat.specs[i].cpi_mean, tiered.specs[i].cpi_mean, kSpecTolerance) << i;
    EXPECT_NEAR(flat.specs[i].cpi_stddev, tiered.specs[i].cpi_stddev, kSpecTolerance) << i;
  }
}

// ---------------------------------------------------------------------------
// Tiered-only behavior.

TEST(TieredAggregationTest, SubscriptionFanoutSkipsUninterestedMachines) {
  // websearch runs everywhere; "special-svc" only on machines 0-2. The flat
  // path broadcasts its spec to all 8 machines; subscription fan-out must
  // touch only the 3 subscribers.
  auto run = [](bool flat) {
    ClusterHarness::Options options;
    options.cluster.seed = 11;
    options.params = FastTestParams();
    options.params.spec_update_interval = 5 * kMicrosPerMinute;
    options.params.min_samples_per_task = 2;
    options.params.flat_aggregation_path = flat;
    options.params.aggregation_cells = 4;
    ClusterHarness harness(options);
    const int kMachines = 8;
    harness.cluster().AddMachines(ReferencePlatform(), kMachines);
    harness.cluster().BuildScheduler();
    for (int i = 0; i < kMachines; ++i) {
      Machine* machine = harness.cluster().machine(static_cast<size_t>(i));
      (void)machine->AddTask(StrFormat("websearch-leaf.%d", i), WebSearchLeafSpec());
      if (i < 3) {
        TaskSpec special = FillerServiceSpec(0.3);
        special.job_name = "special-svc";  // a job only these machines run
        (void)machine->AddTask(StrFormat("special-svc.%da", i), special);
        (void)machine->AddTask(StrFormat("special-svc.%db", i), special);
      }
    }
    harness.WireAgents();
    harness.PrimeSpecs(12 * kMicrosPerMinute);
    harness.RunFor(12 * kMicrosPerMinute);
    EXPECT_TRUE(harness.GetSpec("special-svc", ReferencePlatform().name).has_value());
    return harness.Health().spec_pushes_delivered;
  };
  const int64_t flat_pushes = run(/*flat=*/true);
  const int64_t tiered_pushes = run(/*flat=*/false);
  EXPECT_GT(tiered_pushes, 0);
  EXPECT_LT(tiered_pushes, flat_pushes);
}

TEST(TieredAggregationTest, RestartedAgentResubscribesAndCatchesUp) {
  ClusterHarness::Options options;
  options.cluster.seed = 13;
  options.params = FastTestParams();
  options.params.spec_update_interval = 60 * kMicrosPerMinute;  // no rebuild after prime
  options.params.flat_aggregation_path = false;
  options.params.aggregation_cells = 4;
  ClusterHarness harness(options);
  const int kMachines = 8;
  harness.cluster().AddMachines(ReferencePlatform(), kMachines);
  harness.cluster().BuildScheduler();
  for (int i = 0; i < kMachines; ++i) {
    Machine* machine = harness.cluster().machine(static_cast<size_t>(i));
    (void)machine->AddTask(StrFormat("websearch-leaf.%d", i), WebSearchLeafSpec());
  }
  harness.WireAgents();
  harness.PrimeSpecs(12 * kMicrosPerMinute);

  const std::string victim = harness.cluster().machine(0)->name();
  ASSERT_TRUE(harness.agent(victim)->GetSpec("websearch-leaf").has_value());

  // Kill the agent. A restart cold-starts the process: the spec store is
  // empty and the delivered-version bookkeeping is invalidated.
  ASSERT_TRUE(harness.InjectAgentCrash(victim, 5 * kMicrosPerSecond).ok());
  harness.RunFor(1 * kMicrosPerMinute);

  // No build happened in that minute (interval is 60 min), so the spec the
  // agent holds can only have arrived through resubscription catch-up.
  EXPECT_GE(harness.Health().agents.restarts, 1);
  const auto caught_up = harness.agent(victim)->GetSpec("websearch-leaf");
  ASSERT_TRUE(caught_up.has_value());
  const auto reference = harness.GetSpec("websearch-leaf", ReferencePlatform().name);
  ASSERT_TRUE(reference.has_value());
  EXPECT_EQ(caught_up->num_samples, reference->num_samples);
}

CpiSample MakeSample(const std::string& job, const std::string& task,
                     const std::string& machine, MicroTime t, double cpi) {
  CpiSample sample;
  sample.jobname = job;
  sample.platforminfo = "xeon";
  sample.timestamp = t;
  sample.cpu_usage = 0.5;
  sample.cpi = cpi;
  sample.task = task;
  sample.machine = machine;
  return sample;
}

Cpi2Params TierUnitParams(int cells) {
  Cpi2Params params;
  params.min_tasks_for_spec = 2;
  params.min_samples_per_task = 1;
  params.flat_aggregation_path = false;
  params.aggregation_cells = cells;
  return params;
}

// Feeds `n` samples for one job round-robin across `tier`'s cells.
void FeedSamples(HierarchicalAggregator& tier, int n, MicroTime t) {
  for (int i = 0; i < n; ++i) {
    tier.AddSample(static_cast<size_t>(i) % tier.cell_count(),
                   MakeSample("job", StrFormat("job.%d", i % 4),
                              StrFormat("m%d", i % 8), t + i, 1.0 + 0.01 * i));
  }
}

TEST(TieredAggregationTest, DeadCellIsVisibleInRollups) {
  HierarchicalAggregator tier(TierUnitParams(4));
  FeedSamples(tier, 64, /*t=*/1000);
  (void)tier.ForceBuild(kMicrosPerMinute);
  EXPECT_EQ(tier.cells_reporting(), 4);
  EXPECT_EQ(tier.stalest_partial_age(), 0);
  ASSERT_TRUE(tier.GetSpec("job", "xeon").has_value());
  const int64_t n_healthy = tier.GetSpec("job", "xeon")->num_samples;

  // Cell 2 dies: it stops reporting, the rollups say so, and the specs keep
  // building from the surviving cells (smaller, not stalled).
  tier.SetCellDown(2, true);
  FeedSamples(tier, 64, /*t=*/2 * kMicrosPerMinute);
  (void)tier.ForceBuild(2 * kMicrosPerMinute);
  EXPECT_EQ(tier.cells_reporting(), 3);
  EXPECT_EQ(tier.stalest_partial_age(), kMicrosPerMinute);
  EXPECT_LT(tier.GetSpec("job", "xeon")->num_samples, n_healthy + n_healthy);

  // Revived: the age stops growing and the cell counts again. Its window
  // was discarded while down — no stale partials replay.
  tier.SetCellDown(2, false);
  FeedSamples(tier, 64, /*t=*/3 * kMicrosPerMinute);
  (void)tier.ForceBuild(3 * kMicrosPerMinute);
  EXPECT_EQ(tier.cells_reporting(), 4);
  EXPECT_EQ(tier.stalest_partial_age(), 0);
}

TEST(TieredAggregationTest, DamagedPartialsAreCountedNotFatal) {
  GlobalMerger merger(TierUnitParams(1));
  EXPECT_FALSE(merger.MergeFrame("definitely not a CPI2SKT1 frame").ok());
  EXPECT_GE(merger.partials_dropped(), 1);
}

TEST(TieredAggregationTest, CheckpointIsCellCountInvariantAndRoundTrips) {
  // The same stream through 1-cell and 8-cell tiers: the checkpoints (and
  // the specs) must be byte-identical — merger state is partition-invariant.
  HierarchicalAggregator one(TierUnitParams(1));
  HierarchicalAggregator eight(TierUnitParams(8));
  FeedSamples(one, 100, /*t=*/1000);
  FeedSamples(eight, 100, /*t=*/1000);
  (void)one.ForceBuild(kMicrosPerMinute);
  (void)eight.ForceBuild(kMicrosPerMinute);
  const std::string blob = one.Checkpoint();
  EXPECT_EQ(blob, eight.Checkpoint());

  // Restore into a fresh tier: specs and counters carry over, and the
  // restored state re-checkpoints to the same bytes.
  HierarchicalAggregator restored(TierUnitParams(4));
  ASSERT_TRUE(restored.Restore(blob).ok());
  EXPECT_EQ(restored.Checkpoint(), blob);
  const auto spec = restored.GetSpec("job", "xeon");
  ASSERT_TRUE(spec.has_value());
  EXPECT_EQ(spec->num_samples, one.GetSpec("job", "xeon")->num_samples);
  EXPECT_EQ(spec->cpi_mean, one.GetSpec("job", "xeon")->cpi_mean);
  EXPECT_EQ(restored.builds_completed(), one.builds_completed());

  // Garbage never half-applies.
  HierarchicalAggregator untouched(TierUnitParams(4));
  EXPECT_FALSE(untouched.Restore("CPI2HAG1 but truncated").ok());
  EXPECT_EQ(untouched.builds_completed(), 0);
}

}  // namespace
}  // namespace cpi2
