#include "harness/cluster_harness.h"

#include <gtest/gtest.h>

#include "tests/testing/scenario.h"
#include "util/string_util.h"
#include "workload/profiles.h"

namespace cpi2 {
namespace {

ClusterHarness::Options SmallOptions(uint64_t seed = 3) {
  ClusterHarness::Options options;
  options.cluster.seed = seed;
  options.params = FastTestParams();
  return options;
}

TEST(ClusterHarnessTest, AgentsCreatedPerMachine) {
  ClusterHarness harness(SmallOptions());
  harness.cluster().AddMachines(ReferencePlatform(), 3);
  harness.cluster().BuildScheduler();
  harness.WireAgents();
  for (Machine* machine : harness.cluster().machines()) {
    EXPECT_NE(harness.agent(machine->name()), nullptr);
  }
  EXPECT_EQ(harness.agent("no-such-machine"), nullptr);
}

TEST(ClusterHarnessTest, TasksAreRegisteredWithAgentsOnArrival) {
  ClusterHarness harness(SmallOptions());
  harness.cluster().AddMachines(ReferencePlatform(), 2);
  harness.cluster().BuildScheduler();
  harness.WireAgents();
  (void)harness.cluster().machine(0)->AddTask("late.0", WebSearchLeafSpec());
  harness.RunFor(2 * kMicrosPerSecond);
  Agent* agent = harness.agent(harness.cluster().machine(0)->name());
  EXPECT_TRUE(agent->HasTask("late.0"));
  EXPECT_EQ(harness.AgentForTask("late.0"), agent);
}

TEST(ClusterHarnessTest, TasksAreDeregisteredOnDeparture) {
  ClusterHarness harness(SmallOptions());
  harness.cluster().AddMachines(ReferencePlatform(), 1);
  harness.cluster().BuildScheduler();
  harness.WireAgents();
  (void)harness.cluster().machine(0)->AddTask("gone.0", WebSearchLeafSpec());
  harness.RunFor(2 * kMicrosPerSecond);
  Agent* agent = harness.agent(harness.cluster().machine(0)->name());
  ASSERT_TRUE(agent->HasTask("gone.0"));
  (void)harness.cluster().machine(0)->RemoveTask("gone.0");
  harness.RunFor(2 * kMicrosPerSecond);
  EXPECT_FALSE(agent->HasTask("gone.0"));
  EXPECT_EQ(harness.AgentForTask("gone.0"), nullptr);
}

TEST(ClusterHarnessTest, SamplesFlowToAggregator) {
  ClusterHarness harness(SmallOptions());
  harness.cluster().AddMachines(ReferencePlatform(), 2);
  harness.cluster().BuildScheduler();
  for (int m = 0; m < 2; ++m) {
    (void)harness.cluster().machine(static_cast<size_t>(m))->AddTask(
        StrFormat("svc.%d", m), WebSearchLeafSpec());
  }
  harness.WireAgents();
  harness.RunFor(3 * kMicrosPerMinute);
  EXPECT_GT(harness.samples_collected(), 0);
  EXPECT_GT(harness.aggregator().builder().samples_seen(), 0);
}

TEST(ClusterHarnessTest, PrimeSpecsDistributesToAgents) {
  VictimScenario scenario = MakeVictimScenario(5, WebSearchLeafSpec(), FastTestParams());
  scenario.harness->PrimeSpecs(12 * kMicrosPerMinute);
  for (Machine* machine : scenario.harness->cluster().machines()) {
    Agent* agent = scenario.harness->agent(machine->name());
    EXPECT_TRUE(agent->GetSpec("websearch-leaf").has_value())
        << "spec missing on " << machine->name();
  }
}

TEST(ClusterHarnessTest, SpecsStillBuildUnderSampleLoss) {
  // Figure 6's pipeline tolerates collection loss: detection is local, and
  // spec building just needs more wall time for the same sample count.
  ClusterHarness::Options options = SmallOptions();
  options.faults.sample_loss_rate = 0.3;
  ClusterHarness harness(options);
  harness.cluster().AddMachines(ReferencePlatform(), 5);
  harness.cluster().BuildScheduler();
  for (int m = 0; m < 5; ++m) {
    (void)harness.cluster().machine(static_cast<size_t>(m))->AddTask(
        StrFormat("websearch-leaf.%d", m), WebSearchLeafSpec());
  }
  harness.WireAgents();
  harness.PrimeSpecs(20 * kMicrosPerMinute);
  EXPECT_TRUE(
      harness.aggregator().GetSpec("websearch-leaf", ReferencePlatform().name).has_value());
  // Roughly 30% of the samples vanished before the aggregator.
  const double expected = 5.0 * 20.0;  // 5 tasks x ~1/min x 20 min
  EXPECT_LT(harness.samples_collected(), expected * 0.85);
  EXPECT_GT(harness.samples_collected(), expected * 0.5);
}

TEST(ClusterHarnessTest, MetaFromSpecCopiesClassification) {
  TaskSpec spec = MapReduceWorkerSpec();
  const TaskMeta meta = MetaFromSpec("mr.3", spec);
  EXPECT_EQ(meta.task, "mr.3");
  EXPECT_EQ(meta.jobname, "mapreduce-worker");
  EXPECT_EQ(meta.workload_class, WorkloadClass::kBatch);
  EXPECT_EQ(meta.priority, JobPriority::kBestEffort);
  EXPECT_FALSE(meta.protection_opt_in);
  spec.protection_opt_in = true;
  EXPECT_TRUE(MetaFromSpec("mr.4", spec).protection_opt_in);
}

TEST(ClusterHarnessTest, SpecRebuildsReachAgentsAutomatically) {
  // With a short update interval, specs flow without manual priming.
  ClusterHarness::Options options = SmallOptions();
  options.params.spec_update_interval = 10 * kMicrosPerMinute;
  ClusterHarness harness(options);
  harness.cluster().AddMachines(ReferencePlatform(), 5);
  harness.cluster().BuildScheduler();
  for (int m = 0; m < 5; ++m) {
    (void)harness.cluster().machine(static_cast<size_t>(m))->AddTask(
        StrFormat("websearch-leaf.%d", m), WebSearchLeafSpec());
  }
  harness.WireAgents();
  harness.RunFor(25 * kMicrosPerMinute);
  EXPECT_GT(harness.aggregator().builds_completed(), 0);
  Agent* agent = harness.agent(harness.cluster().machine(0)->name());
  EXPECT_TRUE(agent->GetSpec("websearch-leaf").has_value());
}

}  // namespace
}  // namespace cpi2
