#include "bench/common/trials.h"

#include <algorithm>

#include "harness/cluster_harness.h"
#include "stats/streaming.h"
#include "util/rng.h"
#include "util/string_util.h"
#include "workload/profiles.h"

namespace cpi2 {
namespace {

Cpi2Params TrialParams() {
  Cpi2Params params;
  params.min_tasks_for_spec = 5;
  params.min_samples_per_task = 5;
  // Enforcement stays off: the section-7 methodology caps manually.
  params.enforcement_enabled = false;
  return params;
}

// Production victims behave uniformly; non-production ones are noisy
// ("engineers testing experimental features"), which is the paper's
// explanation for their worse detection accuracy.
TaskSpec VictimSpec(bool production, Rng& rng, MicroTime push_window_start) {
  TaskSpec spec = WebSearchLeafSpec();
  spec.diurnal.amplitude = 0.0;
  if (production) {
    spec.job_name = "victim-prod";
    spec.priority = JobPriority::kProduction;
    spec.cpi_noise_cv = 0.03;
    spec.cpi_task_cv = 0.07;
    spec.demand_cv = 0.1;
    spec.cpi_walk_sigma = 0.01;
  } else {
    spec.job_name = "victim-dev";
    spec.priority = JobPriority::kNonProduction;
    spec.cpi_noise_cv = rng.Uniform(0.08, 0.15);
    spec.cpi_task_cv = 0.05;
    spec.demand_cv = rng.Uniform(0.2, 0.4);
    spec.demand_walk_sigma = 0.1;
    // Experimental code wanders through phases on a timescale the spec's
    // training window undersamples: CPI drifts between the pre- and
    // during-throttle windows for reasons no antagonist explains, firing
    // self-inflicted anomalies whose "relief" is pure chance.
    spec.cpi_walk_sigma = rng.Uniform(0.06, 0.12);
    spec.cpi_walk_revert = 0.01;
    // Half the time, a new experimental binary lands mid-trial and shifts
    // the job's CPI for reasons no antagonist explains.
    if (rng.Bernoulli(0.8)) {
      spec.cpi_step_time =
          push_window_start + static_cast<MicroTime>(rng.Uniform(2.0, 10.0) * kMicrosPerMinute);
      spec.cpi_step_factor = rng.Uniform(1.5, 2.5);
    }
  }
  return spec;
}

// Mean of a series over [begin, end).
double WindowMean(const TimeSeries& series, MicroTime begin, MicroTime end) {
  StreamingStats stats;
  for (const TimePoint& point : View(series, begin, end)) {
    stats.Add(point.value);
  }
  return stats.mean();
}

}  // namespace

ThrottleTrial::Outcome ThrottleTrial::Classify(double margin_sigmas) const {
  if (!incident_fired) {
    return Outcome::kNoIncident;
  }
  const double margin = margin_sigmas * spec_stddev;
  if (during_cpi < pre_cpi - margin) {
    return Outcome::kTruePositive;
  }
  if (during_cpi > pre_cpi + margin) {
    return Outcome::kFalsePositive;
  }
  return Outcome::kNoise;
}

std::vector<ThrottleTrial> RunThrottleTrials(const TrialOptions& options) {
  Rng rng(options.seed);
  std::vector<ThrottleTrial> trials;
  trials.reserve(static_cast<size_t>(options.trials));

  for (int index = 0; index < options.trials; ++index) {
    ThrottleTrial trial;
    trial.production_victim = rng.Bernoulli(options.production_fraction);
    trial.has_true_antagonist = rng.Bernoulli(options.antagonist_probability);

    // --- build the world -------------------------------------------------
    ClusterHarness::Options harness_options;
    harness_options.cluster.seed = rng();
    // Serial: a 6-machine trial is far too small for the thread pool's
    // per-tick hand-offs to pay, and results are identical at any count.
    harness_options.cluster.threads = 1;
    harness_options.params = TrialParams();
    ClusterHarness harness(harness_options);
    const int kMachines = 6;
    harness.cluster().AddMachines(ReferencePlatform(), kMachines);
    harness.cluster().BuildScheduler();

    Rng spec_rng(rng());
        const TaskSpec victim_spec =
        VictimSpec(trial.production_victim, spec_rng, 12 * kMicrosPerMinute);
    Machine* machine0 = harness.cluster().machine(0);
    for (int m = 0; m < kMachines; ++m) {
      (void)harness.cluster().machine(static_cast<size_t>(m))->AddTask(
          StrFormat("%s.%d", victim_spec.job_name.c_str(), m), victim_spec);
    }
    const std::string victim_task = victim_spec.job_name + ".0";

    // Fillers vary the machine utilization across trials (Figure 14 needs a
    // spread of loads).
    const int fillers = static_cast<int>(rng.UniformInt(1, 8));
    for (int m = 0; m < kMachines; ++m) {
      for (int f = 0; f < fillers; ++f) {
        TaskSpec filler =
            (f % 2 == 0) ? FillerServiceSpec(rng.Uniform(0.2, 1.2)) : FillerBatchSpec(rng.Uniform(0.3, 1.5));
        filler.job_name = StrFormat("%s-%d", filler.job_name.c_str(), f);
        (void)harness.cluster().machine(static_cast<size_t>(m))->AddTask(
            StrFormat("%s.m%d", filler.job_name.c_str(), m), filler);
      }
    }
    harness.WireAgents();
    harness.PrimeSpecs(12 * kMicrosPerMinute);

    const auto spec =
        harness.aggregator().GetSpec(victim_spec.job_name, ReferencePlatform().name);
    if (!spec.has_value()) {
      trials.push_back(trial);
      continue;
    }
    trial.spec_mean = spec->cpi_mean;
    trial.spec_stddev = spec->cpi_stddev;

    // --- inject ------------------------------------------------------------
    std::string true_antagonist_task;
    if (trial.has_true_antagonist) {
      trial.antagonist_aggressiveness = rng.Uniform(0.05, 1.0);
      TaskSpec antagonist = CacheThrasherSpec(trial.antagonist_aggressiveness);
      true_antagonist_task = "cache-thrasher.x";
      (void)machine0->AddTask(true_antagonist_task, antagonist);
    } else if (rng.Bernoulli(0.6)) {
      // A diffuse group: three individually-weak thrashers taking turns.
      for (int g = 0; g < 3; ++g) {
        TaskSpec weak = CacheThrasherSpec(0.22);
        weak.job_name = StrFormat("weak-thrasher-%d", g);
        weak.demand_walk_sigma = 0.15;
        weak.demand_walk_revert = 0.05;
        (void)machine0->AddTask(StrFormat("%s.x", weak.job_name.c_str()), weak);
      }
    }
    // else: nothing injected; incidents can only come from filler noise.

    // --- wait for the first incident on machine 0 --------------------------
    Task* victim = machine0->FindTask(victim_task);
    TimeSeries victim_cpi;
    TimeSeries victim_l3_mpi;
    uint64_t last_l3 = victim->l3_misses();
    uint64_t last_instr = victim->instructions();
    MicroTime last_mpi_sample = harness.now();

    const size_t incidents_before = harness.incidents().size();
    const Incident* incident = nullptr;
    const MicroTime deadline = harness.now() + 15 * kMicrosPerMinute;
    StreamingStats post_inject_cpi;
    while (harness.now() < deadline && incident == nullptr) {
      harness.cluster().Tick();
      const MicroTime now = harness.now();
      victim_cpi.Append(now, victim->last_cpi());
      post_inject_cpi.Add(victim->last_cpi());
      if (now - last_mpi_sample >= 10 * kMicrosPerSecond) {
        const uint64_t l3 = victim->l3_misses();
        const uint64_t instr = victim->instructions();
        if (instr > last_instr) {
          victim_l3_mpi.Append(now, static_cast<double>(l3 - last_l3) /
                                        static_cast<double>(instr - last_instr));
        }
        last_l3 = l3;
        last_instr = instr;
        last_mpi_sample = now;
      }
      for (size_t i = incidents_before; i < harness.incidents().size(); ++i) {
        const Incident& candidate = harness.incidents().incidents()[i];
        if (candidate.victim_task == victim_task && !candidate.suspects.empty()) {
          incident = &harness.incidents().incidents()[i];
          break;
        }
      }
    }
    trial.observed_relative_to_mean =
        trial.spec_mean > 0.0 ? post_inject_cpi.mean() / trial.spec_mean : 0.0;

    if (incident == nullptr) {
      trials.push_back(trial);
      continue;
    }
    trial.incident_fired = true;
    trial.machine_utilization = machine0->LastUtilization();
    // Copy: the incident log keeps growing during the cap run below and may
    // reallocate, invalidating references into it.
    const Suspect top = incident->suspects.front();
    trial.top_correlation = top.correlation;
    trial.top_suspect_job = top.jobname;
    trial.top_is_true_antagonist =
        trial.has_true_antagonist && top.task == true_antagonist_task;

    // --- the manual capping protocol ---------------------------------------
    // Pre/during CPI comes from the agent's once-a-minute samples: that is
    // all the real system could see, and the sparse sampling is precisely
    // what makes marginal reliefs hard to classify (the paper's "noise").
    const TimeSeries* sampled_cpi =
        harness.agent(machine0->name())->CpiSeries(victim_task);
    const MicroTime cap_start = harness.now();
    trial.pre_cpi = WindowMean(*sampled_cpi, cap_start - 3 * kMicrosPerMinute, cap_start);
    const double pre_l3 =
        WindowMean(victim_l3_mpi, cap_start - 3 * kMicrosPerMinute, cap_start);
    const double cap_level = top.priority == JobPriority::kBestEffort ? 0.01 : 0.1;
    (void)machine0->SetCap(top.task, cap_level);

    // Run the 5-minute cap; keep recording.
    while (harness.now() < cap_start + 5 * kMicrosPerMinute) {
      harness.cluster().Tick();
      const MicroTime now = harness.now();
      if (machine0->FindTask(victim_task) == nullptr) {
        break;
      }
      victim_cpi.Append(now, victim->last_cpi());
      if (now - last_mpi_sample >= 10 * kMicrosPerSecond) {
        const uint64_t l3 = victim->l3_misses();
        const uint64_t instr = victim->instructions();
        if (instr > last_instr) {
          victim_l3_mpi.Append(now, static_cast<double>(l3 - last_l3) /
                                        static_cast<double>(instr - last_instr));
        }
        last_l3 = l3;
        last_instr = instr;
        last_mpi_sample = now;
      }
    }
    (void)machine0->RemoveCap(top.task);

    trial.during_cpi = WindowMean(*sampled_cpi, cap_start + kMicrosPerMinute,
                                  cap_start + 5 * kMicrosPerMinute);
    const double during_l3 = WindowMean(victim_l3_mpi, cap_start + kMicrosPerMinute,
                                        cap_start + 5 * kMicrosPerMinute);
    trial.relative_cpi = trial.pre_cpi > 0.0 ? trial.during_cpi / trial.pre_cpi : 0.0;
    trial.relative_l3_mpi = pre_l3 > 0.0 ? during_l3 / pre_l3 : 0.0;
    trial.cpi_degradation = trial.spec_mean > 0.0 ? trial.pre_cpi / trial.spec_mean : 0.0;
    trial.cpi_increase_sigmas =
        trial.spec_stddev > 0.0 ? (trial.pre_cpi - trial.spec_mean) / trial.spec_stddev : 0.0;
    trials.push_back(trial);
  }
  return trials;
}

DetectionRates ComputeRates(const std::vector<ThrottleTrial>& trials, double threshold,
                            bool production_only, bool require_production_flag) {
  DetectionRates rates;
  int true_positives = 0;
  int false_positives = 0;
  for (const ThrottleTrial& trial : trials) {
    if (!trial.incident_fired || trial.top_correlation < threshold) {
      continue;
    }
    if (production_only && trial.production_victim != require_production_flag) {
      continue;
    }
    ++rates.considered;
    switch (trial.Classify()) {
      case ThrottleTrial::Outcome::kTruePositive:
        ++true_positives;
        break;
      case ThrottleTrial::Outcome::kFalsePositive:
        ++false_positives;
        break;
      default:
        break;
    }
  }
  if (rates.considered > 0) {
    rates.true_positive = static_cast<double>(true_positives) / rates.considered;
    rates.false_positive = static_cast<double>(false_positives) / rates.considered;
  }
  return rates;
}

}  // namespace cpi2
