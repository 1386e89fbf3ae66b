// Ablation: antagonist-aware placement (paper §9 future work).
//
// "Our cluster scheduler will not place a task on the same machine as a
// user-specified antagonist job, but few users manually provide this
// information. In the future, we hope to provide this information to the
// scheduler automatically." This bench closes that loop: run a cluster
// where a thrasher job keeps hurting a search job, mine the incident log
// with PlacementAdvisor, feed the advice into the scheduler (constraint +
// kill-and-restart of the offenders), and compare the incident rate before
// and after.

#include "bench/common/report.h"
#include "harness/cluster_harness.h"
#include "util/string_util.h"
#include "workload/profiles.h"

namespace cpi2 {
namespace {

void Run() {
  PrintHeader("Ablation: antagonist-aware placement",
              "incident-log advice -> scheduler constraints -> fewer incidents");
  PrintPaperClaim("the logged antagonist data 'could be used to reschedule antagonists to");
  PrintPaperClaim("different machines ... and automatically populate the scheduler's list'");

  ClusterHarness::Options options;
  options.cluster.seed = 77;
  options.params.min_tasks_for_spec = 5;
  options.params.min_samples_per_task = 5;
  options.params.enforcement_enabled = false;  // isolate the placement effect
  ClusterHarness harness(options);
  const int kMachines = 12;
  harness.cluster().AddMachines(ReferencePlatform(), kMachines);
  harness.cluster().BuildScheduler();
  Scheduler& scheduler = harness.cluster().scheduler();

  // Victim job and a thrasher job, both placed through the scheduler so
  // migration works.
  // Victims occupy half the machines so migration has somewhere to go.
  JobSpec victim_job;
  victim_job.name = "websearch-leaf";
  victim_job.task_count = kMachines / 2;
  victim_job.task = WebSearchLeafSpec();
  victim_job.task.cpu_request = 0.8;
  if (!scheduler.SubmitJob(victim_job).ok()) {
    PrintResult("error", "victim submission failed");
    return;
  }
  harness.WireAgents();
  // Specs train before the thrashers show up, as in any long-lived job.
  harness.PrimeSpecs(15 * kMicrosPerMinute);

  JobSpec thrasher_job;
  thrasher_job.name = "cache-thrasher";
  thrasher_job.task_count = 6;
  thrasher_job.task = CacheThrasherSpec(0.8);
  if (!scheduler.SubmitJob(thrasher_job).ok()) {
    PrintResult("error", "thrasher submission failed");
    return;
  }

  // Phase 1: co-located, no mitigation.
  const size_t incidents_at_start = harness.incidents().size();
  const MicroTime phase_length = 40 * kMicrosPerMinute;
  harness.RunFor(phase_length);
  const size_t phase1 = harness.incidents().size() - incidents_at_start;
  PrintResult("phase1_incidents", static_cast<double>(phase1));

  // Mine the log and act on the advice.
  PlacementAdvisor advisor(PlacementAdvisor::Options{});
  const auto advice = advisor.Advise(harness.incidents(), harness.now());
  PrintSection("advice");
  for (const auto& item : advice) {
    PrintTableRow({item.victim_job + " avoid " + item.antagonist_job,
                   StrFormat("%d incidents", item.incidents),
                   StrFormat("max corr %.2f", item.max_correlation)},
                  32);
    scheduler.AddAntagonistConstraint(item.victim_job, item.antagonist_job);
  }
  PrintResult("advice_pairs", static_cast<double>(advice.size()));
  const bool advised = !advice.empty();

  // Kill-and-restart every thrasher task: with the constraint in place, the
  // replacements land away from the victim job.
  int migrated = 0;
  for (int i = 0; i < thrasher_job.task_count; ++i) {
    const std::string task = StrFormat("cache-thrasher.%d", i);
    // The constraint is on the victim; move the thrashers by brute force:
    // migrate until the destination hosts no victim task.
    for (int attempt = 0; attempt < 5; ++attempt) {
      Machine* where = scheduler.LocateTask(task);
      if (where == nullptr) {
        break;
      }
      bool shares = false;
      for (Task* t : where->Tasks()) {
        if (t->spec().job_name == "websearch-leaf") {
          shares = true;
          break;
        }
      }
      if (!shares) {
        break;
      }
      if (!scheduler.MigrateTask(task).ok()) {
        break;
      }
      ++migrated;
    }
  }
  PrintResult("migrations", migrated);

  // Phase 2: same duration, constraints active.
  const size_t before_phase2 = harness.incidents().size();
  harness.RunFor(phase_length);
  const size_t phase2 = harness.incidents().size() - before_phase2;
  PrintResult("phase2_incidents", static_cast<double>(phase2));

  const bool shape = advised && phase1 > 0 &&
                     static_cast<double>(phase2) < 0.5 * static_cast<double>(phase1);
  PrintResult("shape_holds",
              shape ? "yes (advice found the offender; separating the jobs cut incidents "
                      "by more than half)"
                    : "NO");
}

}  // namespace
}  // namespace cpi2

int main() {
  cpi2::Run();
  return cpi2::VerdictExitCode();
}
