// Section 7's deployment-scale rate: "It is identifying antagonists at an
// average rate of 0.37 times per machine-day."
//
// A representative cluster runs for a simulated day with transient
// antagonists arriving and leaving (a video-processing or thrashing batch
// job passes through a machine for half an hour, then moves on). We count
// incidents whose top suspect clears the naming threshold, per machine-day.
// The exact rate is a property of how rowdy the cluster is; the shape check
// is the paper's: identifications are *rare but steady* — order 0.1-1 per
// machine-day, not zero and not hundreds.

#include "bench/common/report.h"
#include "harness/cluster_harness.h"
#include "util/string_util.h"
#include "workload/cluster_builder.h"
#include "workload/profiles.h"

namespace cpi2 {
namespace {

void Run() {
  PrintHeader("Deployment rate (section 7)",
              "antagonist identifications per machine-day over a simulated day");
  PrintPaperClaim("measurement fleet-wide: 0.37 identifications per machine-day");

  ClusterHarness::Options options;
  options.cluster.seed = 4004;
  options.cluster.tick = 5 * kMicrosPerSecond;  // coarse ticks for a full day
  options.params.min_tasks_for_spec = 5;
  options.params.min_samples_per_task = 5;
  options.params.enforcement_enabled = false;  // count identifications only
  ClusterHarness harness(options);
  const int kMachines = 40;

  // Representative background population.
  ClusterMixOptions mix;
  mix.machines = kMachines;
  mix.mean_tasks_per_machine = 10.0;
  mix.seed = 5;
  BuildRepresentativeCluster(&harness.cluster(), mix);

  // A latency-sensitive job everywhere, so every machine has a potential
  // victim with a strong spec.
  for (int m = 0; m < kMachines; ++m) {
    (void)harness.cluster().machine(static_cast<size_t>(m))->AddTask(
        StrFormat("websearch-leaf.%d", m), WebSearchLeafSpec());
  }
  harness.WireAgents();
  harness.PrimeSpecs(30 * kMicrosPerMinute);
  const size_t incidents_before = harness.incidents().size();

  // Antagonist churn: every few hours an aggressive batch task lands on a
  // random machine and stays for 25 minutes.
  Rng churn_rng(11);
  struct Visit {
    std::string task;
    size_t machine;
    MicroTime leaves_at;
  };
  std::vector<Visit> visits;
  MicroTime next_arrival = harness.now();
  int visit_counter = 0;
  harness.cluster().AddTickListener([&](MicroTime now) {
    if (now >= next_arrival) {
      next_arrival = now + SecondsToMicros(churn_rng.Uniform(100.0, 220.0) * 60.0);
      Visit visit;
      visit.machine = static_cast<size_t>(churn_rng.UniformInt(0, kMachines - 1));
      visit.task = StrFormat("visiting-thrasher.%d", visit_counter++);
      visit.leaves_at = now + 25 * kMicrosPerMinute;
      TaskSpec spec = churn_rng.Bernoulli(0.5) ? VideoProcessingSpec()
                                               : CacheThrasherSpec(churn_rng.Uniform(0.5, 1.0));
      spec.job_name = "visiting-thrasher";
      if (harness.cluster().machine(visit.machine)->AddTask(visit.task, spec).ok()) {
        visits.push_back(visit);
      }
    }
    for (auto it = visits.begin(); it != visits.end();) {
      if (now >= it->leaves_at) {
        (void)harness.cluster().machine(it->machine)->RemoveTask(it->task);
        it = visits.erase(it);
      } else {
        ++it;
      }
    }
  });

  harness.RunFor(kMicrosPerDay);

  // Count identifications: incidents whose top suspect clears the naming
  // threshold. Repeats of the same (machine, suspect) within half an hour
  // collapse into one identification — one page per antagonist episode, as
  // an operator would see them.
  int identifications = 0;
  std::map<std::pair<std::string, std::string>, MicroTime> last_seen;
  for (size_t i = incidents_before; i < harness.incidents().size(); ++i) {
    const Incident& incident = harness.incidents().incidents()[i];
    if (incident.suspects.empty() || incident.suspects.front().correlation < 0.35) {
      continue;
    }
    const auto key = std::make_pair(incident.machine, incident.suspects.front().task);
    const auto it = last_seen.find(key);
    if (it == last_seen.end() || incident.timestamp - it->second > 30 * kMicrosPerMinute) {
      ++identifications;
    }
    last_seen[key] = incident.timestamp;
  }

  const double machine_days = static_cast<double>(kMachines);
  const double rate = identifications / machine_days;
  PrintResult("machines", kMachines);
  PrintResult("antagonist_visits", visit_counter);
  PrintResult("identifications", identifications);
  PrintResult("identifications_per_machine_day", rate);
  const bool shape = rate > 0.05 && rate < 2.0;
  PrintResult("shape_holds",
              shape ? "yes (rare but steady, same order as the paper's 0.37/machine-day)"
                    : "NO");
}

}  // namespace
}  // namespace cpi2

int main() {
  cpi2::Run();
  return cpi2::VerdictExitCode();
}
