// Agent tests against a single simulated machine (the same CounterSource /
// CpuController wiring the harness uses, but driven by hand).

#include "core/agent.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "perf/flaky_counter_source.h"
#include "sim/machine.h"
#include "stats/streaming.h"
#include "tests/testing/reference_correlation.h"
#include "util/string_util.h"
#include "workload/profiles.h"

namespace cpi2 {
namespace {

Cpi2Params TestParams() {
  Cpi2Params params;
  params.min_tasks_for_spec = 1;
  params.min_samples_per_task = 1;
  return params;
}

CpiSpec LeafSpec(double mean, double stddev) {
  CpiSpec spec;
  spec.jobname = "websearch-leaf";
  spec.platforminfo = ReferencePlatform().name;
  spec.num_samples = 100000;
  spec.cpi_mean = mean;
  spec.cpi_stddev = stddev;
  spec.cpu_usage_mean = 0.6;
  return spec;
}

TaskMeta MetaFromSpecLocal(const std::string& name, const TaskSpec& spec) {
  TaskMeta meta;
  meta.task = name;
  meta.jobname = spec.job_name;
  meta.workload_class = spec.sched_class;
  meta.priority = spec.priority;
  return meta;
}

class AgentTest : public ::testing::Test {
 protected:
  AgentTest()
      : machine_("m0", ReferencePlatform(), 1),
        agent_({TestParams(), "m0", ReferencePlatform().name}, &machine_, &machine_) {
    agent_.SetSampleCallback([this](const CpiSample& sample) { samples_.push_back(sample); });
    agent_.SetIncidentCallback(
        [this](const Incident& incident) { incidents_.push_back(incident); });
  }

  void AddVictim() {
    TaskSpec spec = WebSearchLeafSpec();
    spec.diurnal.amplitude = 0.0;
    ASSERT_TRUE(machine_.AddTask("websearch-leaf.0", spec).ok());
    agent_.AddTask(MetaFromSpecLocal("websearch-leaf.0", spec), now_);
  }

  void Run(MicroTime duration) {
    const MicroTime end = now_ + duration;
    while (now_ < end) {
      now_ += kMicrosPerSecond;
      machine_.Tick(now_, kMicrosPerSecond);
      agent_.Tick(now_);
    }
  }

  Machine machine_;
  Agent agent_;
  MicroTime now_ = 0;
  std::vector<CpiSample> samples_;
  std::vector<Incident> incidents_;
};

TEST_F(AgentTest, ProducesOneSamplePerTaskPerMinute) {
  AddVictim();
  Run(5 * kMicrosPerMinute);
  EXPECT_GE(samples_.size(), 4u);
  EXPECT_LE(samples_.size(), 6u);
  const CpiSample& sample = samples_.front();
  EXPECT_EQ(sample.jobname, "websearch-leaf");
  EXPECT_EQ(sample.task, "websearch-leaf.0");
  EXPECT_EQ(sample.machine, "m0");
  EXPECT_EQ(sample.platforminfo, ReferencePlatform().name);
  EXPECT_GT(sample.cpi, 0.0);
  EXPECT_GT(sample.cpu_usage, 0.0);
  EXPECT_GT(sample.l3_miss_per_instruction, 0.0);
}

TEST_F(AgentTest, NoDetectionWithoutSpec) {
  AddVictim();
  TaskSpec antagonist = VideoProcessingSpec();
  ASSERT_TRUE(machine_.AddTask("video.0", antagonist).ok());
  agent_.AddTask(MetaFromSpecLocal("video.0", antagonist), now_);
  Run(15 * kMicrosPerMinute);
  EXPECT_GT(agent_.samples_processed(), 0);
  EXPECT_EQ(agent_.anomalies_detected(), 0) << "no spec -> no prediction -> no anomaly";
  EXPECT_TRUE(incidents_.empty());
}

TEST_F(AgentTest, SpecForWrongPlatformIsIgnored) {
  AddVictim();
  CpiSpec wrong = LeafSpec(1.8, 0.1);
  wrong.platforminfo = "some-other-cpu";
  agent_.UpdateSpec(wrong);
  EXPECT_FALSE(agent_.GetSpec("websearch-leaf").has_value());
  agent_.UpdateSpec(LeafSpec(1.8, 0.1));
  EXPECT_TRUE(agent_.GetSpec("websearch-leaf").has_value());
}

TEST_F(AgentTest, DetectsInjectedAntagonistAndCaps) {
  AddVictim();
  Run(5 * kMicrosPerMinute);  // build the victim's series
  agent_.UpdateSpec(LeafSpec(1.85, 0.1));

  TaskSpec antagonist = VideoProcessingSpec();
  ASSERT_TRUE(machine_.AddTask("video.0", antagonist).ok());
  agent_.AddTask(MetaFromSpecLocal("video.0", antagonist), now_);
  Run(8 * kMicrosPerMinute);

  EXPECT_GT(agent_.outliers_flagged(), 0);
  EXPECT_GT(agent_.anomalies_detected(), 0);
  ASSERT_FALSE(incidents_.empty());
  const Incident& incident = incidents_.front();
  EXPECT_EQ(incident.victim_job, "websearch-leaf");
  EXPECT_EQ(incident.victim_class, WorkloadClass::kLatencySensitive);
  ASSERT_FALSE(incident.suspects.empty());
  EXPECT_EQ(incident.suspects.front().task, "video.0");
  EXPECT_EQ(incident.action, IncidentAction::kHardCap);
  // The first cap may already have expired by the end of the run (5-minute
  // duration); what matters is that enforcement fired.
  EXPECT_GT(agent_.enforcement().caps_applied(), 0);
}

TEST_F(AgentTest, RemoveTaskStopsSamplingAndClearsState) {
  AddVictim();
  Run(2 * kMicrosPerMinute);
  const auto samples_before = samples_.size();
  agent_.RemoveTask("websearch-leaf.0");
  EXPECT_FALSE(agent_.HasTask("websearch-leaf.0"));
  EXPECT_EQ(agent_.UsageSeries("websearch-leaf.0"), nullptr);
  Run(3 * kMicrosPerMinute);
  EXPECT_EQ(samples_.size(), samples_before);
}

TEST_F(AgentTest, SurvivesTaskVanishingFromMachine) {
  // Failure injection: the task disappears from the machine but the agent
  // is not told. Counter reads fail; the agent must keep running.
  AddVictim();
  Run(2 * kMicrosPerMinute);
  ASSERT_TRUE(machine_.RemoveTask("websearch-leaf.0").ok());
  Run(3 * kMicrosPerMinute);  // must not crash
  EXPECT_TRUE(agent_.HasTask("websearch-leaf.0"));
}

TEST_F(AgentTest, IdleTaskWindowsAreRecordedButNotScored) {
  // A task that never runs retires no instructions: its windows carry
  // cpi == 0 and must not reach the detector (no false outliers), but its
  // (zero) usage still lands in the series so it can be exonerated as a
  // suspect.
  TaskSpec idle = WebSearchLeafSpec();
  idle.job_name = "idle-svc";
  idle.base_cpu_demand = 0.0;
  idle.demand_cv = 0.0;
  ASSERT_TRUE(machine_.AddTask("idle-svc.0", idle).ok());
  agent_.AddTask(MetaFromSpecLocal("idle-svc.0", idle), now_);
  CpiSpec spec = LeafSpec(1.8, 0.1);
  spec.jobname = "idle-svc";
  agent_.UpdateSpec(spec);
  Run(5 * kMicrosPerMinute);
  EXPECT_EQ(agent_.outliers_flagged(), 0);
  const TimeSeries* usage = agent_.UsageSeries("idle-svc.0");
  ASSERT_NE(usage, nullptr);
  EXPECT_GE(usage->size(), 3u);
  const TimeSeries* cpi = agent_.CpiSeries("idle-svc.0");
  ASSERT_NE(cpi, nullptr);
  EXPECT_EQ(cpi->size(), 0u) << "cpi==0 windows carry no CPI information";
}

TEST_F(AgentTest, UsageSeriesTracksSamples) {
  AddVictim();
  Run(5 * kMicrosPerMinute);
  const TimeSeries* usage = agent_.UsageSeries("websearch-leaf.0");
  ASSERT_NE(usage, nullptr);
  EXPECT_GE(usage->size(), 4u);
  const TimeSeries* cpi = agent_.CpiSeries("websearch-leaf.0");
  ASSERT_NE(cpi, nullptr);
  EXPECT_GE(cpi->size(), 4u);
}

TEST_F(AgentTest, WithoutTransportNothingIsQueued) {
  // No delivery callback: samples still reach the tap, but nothing enters
  // the outbox, offered samples are dropped, and a flush is a no-op.
  AddVictim();
  Run(3 * kMicrosPerMinute);
  ASSERT_FALSE(samples_.empty());
  agent_.OfferSample(samples_.front());
  agent_.FlushOutbox(now_);
  EXPECT_EQ(agent_.outbox_size(), 0u);
  EXPECT_EQ(agent_.health().samples_enqueued, 0);
  EXPECT_EQ(agent_.health().samples_delivered, 0);
}

// --- incident-time oracle check ---------------------------------------------

struct OracleRun {
  int64_t incidents = 0;
  int64_t incidents_before_restart = 0;
  int64_t suspects_checked = 0;
  // Incidents whose correlation window held victim samples on both sides of
  // the threshold, so both branches of the score were compared.
  int64_t mixed_windows = 0;
  int64_t counter_rejects = 0;
  std::vector<std::string> mismatches;
};

// Drives one agent through anomalies across task churn and a restart, and at
// every incident re-ranks the suspects with the per-suspect reference over
// the agent's own series. The incident callback runs synchronously at the
// end of the analysis, so the series it reads are exactly the ones the
// batched engine scored.
OracleRun RunAgainstReference(bool counter_glitches) {
  Cpi2Params params = TestParams();
  params.analysis_interval = 0;         // analyze every anomaly
  params.enforcement_enabled = false;   // keep the antagonists hurting
  Machine machine("m0", ReferencePlatform(), 1);
  FlakyCounterSource::Options flaky_options;
  flaky_options.seed = 17;
  flaky_options.zero_rate = 0.01;
  flaky_options.garbage_rate = 0.01;
  flaky_options.stuck_rate = 0.01;
  FlakyCounterSource flaky(&machine, flaky_options);
  CounterSource* source = counter_glitches ? static_cast<CounterSource*>(&flaky) : &machine;
  Agent agent({params, "m0", ReferencePlatform().name}, source, &machine);

  OracleRun run;
  agent.SetIncidentCallback([&](const Incident& incident) {
    ++run.incidents;
    const TimeSeries* victim_cpi = agent.CpiSeries(incident.victim_task);
    if (victim_cpi == nullptr) {
      run.mismatches.push_back("no CPI series for victim " + incident.victim_task);
      return;
    }
    std::vector<SuspectInput> inputs;
    for (const auto& [task, meta] : agent.Tasks()) {
      if (task != incident.victim_task) {
        inputs.push_back(
            {task, meta.jobname, meta.workload_class, meta.priority, agent.UsageSeries(task)});
      }
    }
    for (const ReferenceKernel kernel :
         {ReferenceKernel::kFused, ReferenceKernel::kAlignSeries}) {
      const std::vector<Suspect> reference = ReferenceAnalyze(
          params, *victim_cpi, incident.cpi_threshold, inputs, incident.timestamp, kernel);
      bool same = reference.size() == incident.suspects.size();
      for (size_t i = 0; same && i < reference.size(); ++i) {
        const Suspect& a = incident.suspects[i];
        const Suspect& b = reference[i];
        same = a.task == b.task && a.jobname == b.jobname &&
               a.workload_class == b.workload_class && a.priority == b.priority &&
               a.correlation == b.correlation;  // exact, not near
      }
      if (!same) {
        run.mismatches.push_back(StrFormat("t=%lld victim=%s: %zu suspects vs %zu reference",
                                           static_cast<long long>(incident.timestamp),
                                           incident.victim_task.c_str(),
                                           incident.suspects.size(), reference.size()));
      }
    }
    run.suspects_checked += static_cast<int64_t>(incident.suspects.size());
    bool below = false;
    bool above = false;
    for (const TimePoint& point :
         View(*victim_cpi, incident.timestamp - params.correlation_window, incident.timestamp)) {
      (point.value < incident.cpi_threshold ? below : above) = true;
    }
    run.mixed_windows += below && above ? 1 : 0;
  });

  MicroTime now = 0;
  const auto run_for = [&](MicroTime duration) {
    for (const MicroTime end = now + duration; now < end;) {
      now += kMicrosPerSecond;
      machine.Tick(now, kMicrosPerSecond);
      agent.Tick(now);
    }
  };
  const auto add = [&](const std::string& name, const TaskSpec& spec) {
    EXPECT_TRUE(machine.AddTask(name, spec).ok()) << name;
    agent.AddTask(MetaFromSpecLocal(name, spec), now);
  };
  const auto remove = [&](const std::string& name) {
    EXPECT_TRUE(machine.RemoveTask(name).ok()) << name;
    agent.RemoveTask(name);
  };

  TaskSpec leaf = WebSearchLeafSpec();
  leaf.diurnal.amplitude = 0.0;
  for (int v = 0; v < 3; ++v) {
    add(StrFormat("websearch-leaf.%d", v), leaf);
  }
  add("filler-svc.0", FillerServiceSpec(0.3));
  add("filler-batch.0", FillerBatchSpec(0.3));
  run_for(5 * kMicrosPerMinute);
  // The victims' spec is their own uncontended behaviour, so the victims sit
  // below the outlier threshold until an antagonist arrives.
  StreamingStats victim_cpi;
  for (int v = 0; v < 3; ++v) {
    const TimeSeries& cpi = *agent.CpiSeries(StrFormat("websearch-leaf.%d", v));
    for (size_t i = 0; i < cpi.size(); ++i) {
      victim_cpi.Add(cpi[i].value);
    }
  }
  const CpiSpec spec = LeafSpec(victim_cpi.mean(), std::max(0.02, victim_cpi.stddev()));
  agent.UpdateSpec(spec, now);

  // Anomalies, then churn between them: a co-runner leaves, a new one (a
  // fresh suspect-table row) arrives, and the antagonist itself is replaced.
  add("video.0", VideoProcessingSpec());
  run_for(6 * kMicrosPerMinute);
  remove("filler-batch.0");
  add("filler-batch.1", FillerBatchSpec(0.3));
  run_for(4 * kMicrosPerMinute);
  remove("video.0");
  add("video.1", VideoProcessingSpec());
  run_for(5 * kMicrosPerMinute);

  // Crash and restart: every series and the suspect table are gone; the
  // restarted agent re-registers the machine's tasks and needs fresh specs.
  run.incidents_before_restart = run.incidents;
  agent.Restart(now);
  for (Task* task : machine.Tasks()) {
    agent.AddTask(MetaFromSpecLocal(task->name(), task->spec()), now);
  }
  agent.UpdateSpec(spec, now);
  run_for(10 * kMicrosPerMinute);

  run.counter_rejects = agent.health().counter_rejects;
  EXPECT_EQ(agent.health().restarts, 1);
  return run;
}

TEST(AgentOracleTest, IncidentRankingsMatchReferenceAcrossChurnAndRestart) {
  const OracleRun run = RunAgainstReference(/*counter_glitches=*/false);
  EXPECT_GE(run.incidents_before_restart, 10) << "identification must fire before the restart";
  EXPECT_GE(run.incidents - run.incidents_before_restart, 3) << "... and after it";
  EXPECT_GT(run.suspects_checked, 3 * run.incidents);
  EXPECT_GE(run.mixed_windows, 3) << "healthy and painful victim samples must both be scored";
  EXPECT_TRUE(run.mismatches.empty()) << run.mismatches.front();
}

TEST(AgentOracleTest, IncidentRankingsMatchReferenceUnderCounterGlitches) {
  const OracleRun run = RunAgainstReference(/*counter_glitches=*/true);
  EXPECT_GT(run.counter_rejects, 0) << "glitches must actually reach the agent";
  EXPECT_GE(run.incidents_before_restart, 10) << "identification must fire before the restart";
  EXPECT_GE(run.incidents - run.incidents_before_restart, 3) << "... and after it";
  EXPECT_TRUE(run.mismatches.empty()) << run.mismatches.front();
}

}  // namespace
}  // namespace cpi2
