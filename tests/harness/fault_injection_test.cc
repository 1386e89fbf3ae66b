// Fault-plane integration: injected faults flow through the harness, the
// i.i.d. sample-loss stream follows the cluster seed, and an agent that
// crashes mid-run comes back cold: it catches up to the current spec at
// once, but detects nothing until its fresh detector has seen enough
// outliers again.

#include <gtest/gtest.h>

#include <string>

#include "harness/cluster_harness.h"
#include "tests/testing/scenario.h"
#include "util/string_util.h"
#include "workload/profiles.h"

namespace cpi2 {
namespace {

struct LossRun {
  int64_t samples_collected = 0;
  ClusterHealthReport health;
};

// Four machines under 25% i.i.d. sample loss for ten minutes.
LossRun RunUnderSampleLoss(uint64_t cluster_seed) {
  ClusterHarness::Options options;
  options.cluster.seed = cluster_seed;
  options.params = FastTestParams();
  options.faults.sample_loss_rate = 0.25;
  ClusterHarness harness(options);
  const int kMachines = 4;
  harness.cluster().AddMachines(ReferencePlatform(), kMachines);
  harness.cluster().BuildScheduler();
  for (int i = 0; i < kMachines; ++i) {
    Machine* machine = harness.cluster().machine(static_cast<size_t>(i));
    (void)machine->AddTask(StrFormat("websearch-leaf.%d", i), WebSearchLeafSpec());
    (void)machine->AddTask(StrFormat("filler-svc.%d", i), FillerServiceSpec(0.3));
  }
  harness.WireAgents();
  harness.RunFor(10 * kMicrosPerMinute);
  return {harness.samples_collected(), harness.Health()};
}

TEST(FaultInjectionTest, DropStreamFollowsClusterSeed) {
  const LossRun seed0 = RunUnderSampleLoss(/*cluster_seed=*/0);
  const LossRun again = RunUnderSampleLoss(/*cluster_seed=*/0);
  const LossRun seed1 = RunUnderSampleLoss(/*cluster_seed=*/1);
  // Every loss is drawn from the fault plane and counted on both sides.
  EXPECT_GT(seed0.health.faults.samples_lost, 0);
  EXPECT_EQ(seed0.health.faults.samples_lost, seed0.health.agents.samples_lost);
  EXPECT_EQ(seed0.samples_collected, seed0.health.agents.samples_delivered);
  // Same seed, same draws; another seed, another stream.
  EXPECT_EQ(again.samples_collected, seed0.samples_collected);
  EXPECT_EQ(again.health.faults.samples_lost, seed0.health.faults.samples_lost);
  EXPECT_NE(seed1.health.faults.samples_lost, seed0.health.faults.samples_lost);
}

TEST(FaultInjectionTest, AgentRestartComesBackColdThenResumes) {
  VictimScenario scenario =
      MakeVictimScenario(/*machines=*/8, WebSearchLeafSpec(), FastTestParams());
  ClusterHarness& harness = *scenario.harness;
  harness.PrimeSpecs(12 * kMicrosPerMinute);
  InjectAntagonist(scenario, VideoProcessingSpec(), "video-processing.0");
  harness.RunFor(10 * kMicrosPerMinute);

  Agent* agent = harness.agent(scenario.victim_machine);
  ASSERT_NE(agent, nullptr);
  ASSERT_GT(agent->incidents_reported(), 0) << "scenario must detect before the crash";
  ASSERT_TRUE(agent->GetSpec("websearch-leaf").has_value());

  // Down for the default 5 s restart delay, then back.
  ASSERT_TRUE(harness.InjectAgentCrash(scenario.victim_machine).ok());
  harness.RunFor(10 * kMicrosPerSecond);
  EXPECT_EQ(agent->health().restarts, 1);

  // The restarted process subscribed again and caught up to the
  // aggregator's current spec at once; no build ran meanwhile.
  const auto caught_up = agent->GetSpec("websearch-leaf");
  const auto current = harness.aggregator().GetSpec("websearch-leaf", ReferencePlatform().name);
  ASSERT_TRUE(caught_up.has_value());
  ASSERT_TRUE(current.has_value());
  EXPECT_EQ(caught_up->num_samples, current->num_samples);
  EXPECT_EQ(caught_up->cpi_mean, current->cpi_mean);

  // Its detector is cold: with the antagonist still thrashing the victim,
  // no incident fires until the fresh detector has flagged >= 3 outliers.
  int64_t outliers_at_first_incident = -1;
  for (int second = 0; second < 10 * 60; ++second) {
    harness.RunFor(kMicrosPerSecond);
    if (agent->incidents_reported() > 0) {
      outliers_at_first_incident = agent->outliers_flagged();
      break;
    }
  }
  EXPECT_GT(agent->samples_processed(), 0) << "sampling must resume after restart";
  ASSERT_GE(outliers_at_first_incident, 0) << "detection must resume after restart";
  EXPECT_GE(outliers_at_first_incident, 3);
  EXPECT_EQ(agent->health().restarts, 1);
}

TEST(FaultInjectionTest, RestartReconcilesLeftoverCaps) {
  VictimScenario scenario =
      MakeVictimScenario(/*machines=*/8, WebSearchLeafSpec(), FastTestParams());
  ClusterHarness& harness = *scenario.harness;
  harness.PrimeSpecs(12 * kMicrosPerMinute);
  const std::string antagonist =
      InjectAntagonist(scenario, VideoProcessingSpec(), "video-processing.0");
  harness.RunFor(10 * kMicrosPerMinute);

  Machine* machine = harness.cluster().machine(0);
  ASSERT_TRUE(machine->GetCap(antagonist).has_value())
      << "scenario must have capped the antagonist before the crash";

  ASSERT_TRUE(harness.InjectAgentCrash(scenario.victim_machine).ok());
  harness.RunFor(1 * kMicrosPerMinute);

  // The dead agent's kernel cap was lifted by startup reconciliation: the
  // fresh process has no record of imposing it ("fail open").
  EXPECT_FALSE(machine->GetCap(antagonist).has_value());
  EXPECT_GE(harness.Health().caps_cleared_on_restart, 1);
}

TEST(FaultInjectionTest, SampleBurstsLoseSamplesAndAreCounted) {
  struct BurstRun {
    int64_t samples_collected = 0;
    int64_t outbox_pending = 0;
    ClusterHealthReport health;
  };
  auto run = [](double burst_rate) {
    ClusterHarness::Options options;
    options.cluster.seed = 11;
    options.params = FastTestParams();
    options.faults.sample_burst_per_tick = burst_rate;
    options.faults.sample_burst_duration = 20 * kMicrosPerSecond;
    ClusterHarness harness(options);
    harness.cluster().AddMachines(ReferencePlatform(), 4);
    harness.cluster().BuildScheduler();
    for (int i = 0; i < 4; ++i) {
      (void)harness.cluster().machine(i)->AddTask(StrFormat("websearch-leaf.%d", i),
                                                  WebSearchLeafSpec());
      (void)harness.cluster().machine(i)->AddTask(StrFormat("filler-svc.%d", i),
                                                  FillerServiceSpec(0.3));
    }
    harness.WireAgents();
    harness.RunFor(10 * kMicrosPerMinute);
    BurstRun result;
    result.samples_collected = harness.samples_collected();
    result.health = harness.Health();
    for (Machine* machine : harness.cluster().machines()) {
      result.outbox_pending +=
          static_cast<int64_t>(harness.agent(machine->name())->outbox_size());
    }
    return result;
  };

  const BurstRun clean = run(0.0);
  const BurstRun bursty = run(0.05);
  EXPECT_GT(bursty.health.faults.sample_bursts, 0);
  EXPECT_GT(bursty.health.agents.samples_lost, 0);
  EXPECT_LT(bursty.samples_collected, clean.samples_collected);
  // Conservation: every enqueued sample was delivered, lost, evicted, or is
  // still pending in an outbox.
  EXPECT_EQ(bursty.health.agents.samples_enqueued,
            bursty.health.agents.samples_delivered + bursty.health.agents.samples_lost +
                bursty.health.agents.outbox_overflow_drops + bursty.outbox_pending);
}

TEST(FaultInjectionTest, AckLossRetriesAreAbsorbedByDedup) {
  ClusterHarness::Options options;
  options.cluster.seed = 13;
  options.params = FastTestParams();
  options.params.sample_dedup_window = 5 * kMicrosPerMinute;
  options.faults.ack_loss_rate = 0.2;
  ClusterHarness harness(options);
  harness.cluster().AddMachines(ReferencePlatform(), 4);
  harness.cluster().BuildScheduler();
  for (int i = 0; i < 4; ++i) {
    (void)harness.cluster().machine(i)->AddTask(StrFormat("websearch-leaf.%d", i),
                                                WebSearchLeafSpec());
    (void)harness.cluster().machine(i)->AddTask(StrFormat("filler-svc.%d", i),
                                                FillerServiceSpec(0.3));
  }
  harness.WireAgents();
  harness.RunFor(10 * kMicrosPerMinute);

  const ClusterHealthReport health = harness.Health();
  EXPECT_GT(health.faults.acks_lost, 0);
  // Every lost ack produces a retry of an already-accepted sample; dedup
  // absorbs each one (retries still queued at run end haven't re-delivered
  // yet, so dropped <= lost).
  EXPECT_GT(health.duplicates_dropped, 0);
  EXPECT_LE(health.duplicates_dropped, health.faults.acks_lost);
  EXPECT_GT(harness.samples_collected(), 0);
}

}  // namespace
}  // namespace cpi2
