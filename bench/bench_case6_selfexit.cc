// Case 6 / Figure 13: an antagonist that self-terminates under capping.
//
// The paper: a MapReduce worker survived its first 5-minute capping
// (perhaps inactive at the time) but exited abruptly partway into the
// second, preferring to be rescheduled onto a machine with better
// performance. Batch frameworks treat this as an ordinary failure and
// restart the shard elsewhere.

#include "bench/common/case_study.h"
#include "bench/common/report.h"
#include "workload/profiles.h"

namespace cpi2 {
namespace {

void Run() {
  PrintHeader("Case 6 (Figure 13)", "MapReduce worker exits during its second capping");
  PrintPaperClaim("survives cap #1; exits abruptly during cap #2; framework restarts it");

  CaseStudyOptions options;
  options.seed = 1306;
  options.tenants_on_case_machine = 20;
  options.enforcement = false;
  TaskSpec victim_spec = WebSearchLeafSpec();
  victim_spec.job_name = "latency-sensitive-svc";
  CaseStudy cs = MakeCaseStudy(victim_spec, options);
  ClusterHarness& harness = *cs.harness;
  harness.traces().Watch(cs.machine0, cs.victim_task);
  harness.traces().Watch(cs.machine0, "mapreduce-worker.x");

  TaskSpec antagonist = MapReduceWorkerSpec();
  antagonist.base_cpu_demand = 3.0;
  antagonist.cache_mb = 14.0;
  antagonist.memory_intensity = 0.8;
  (void)cs.machine0->AddTask("mapreduce-worker.x", antagonist);

  // NOTE: the worker may be reaped from the machine once it exits, so it is
  // always re-looked-up rather than held as a pointer across ticks.
  const auto worker_alive = [&] {
    const Task* task = cs.machine0->FindTask("mapreduce-worker.x");
    return task != nullptr && !task->exited();
  };

  Agent* agent = harness.agent(cs.machine0->name());

  // Cap #1: five minutes; the worker tolerates it.
  harness.RunFor(8 * kMicrosPerMinute);
  (void)agent->enforcement().ManualCap("mapreduce-worker.x", 0.01, 5 * kMicrosPerMinute,
                                       harness.now());
  harness.RunFor(5 * kMicrosPerMinute);
  const bool survived_first = worker_alive();
  PrintResult("survived_first_cap", survived_first ? "yes" : "no");
  harness.RunFor(10 * kMicrosPerMinute);

  // Cap #2: the worker gives up partway through.
  (void)agent->enforcement().ManualCap("mapreduce-worker.x", 0.01, 5 * kMicrosPerMinute,
                                       harness.now());
  harness.RunFor(5 * kMicrosPerMinute);
  const bool exited_second = !worker_alive();
  PrintResult("exited_during_second_cap", exited_second ? "yes" : "no");
  harness.RunFor(5 * kMicrosPerMinute);

  PrintSeriesPair("victim CPI", harness.traces().trace(cs.victim_task).cpi,
                  "antagonist CPU usage",
                  harness.traces().trace("mapreduce-worker.x").cpu_usage, 30);

  PrintResult("shape_holds", survived_first && exited_second
                                 ? "yes (survives cap #1, exits during cap #2)"
                                 : "NO");
}

}  // namespace
}  // namespace cpi2

int main() {
  cpi2::Run();
  return cpi2::VerdictExitCode();
}
