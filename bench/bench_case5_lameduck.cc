// Case 5 / Figure 12: an antagonist that tolerates capping via lame-duck
// mode.
//
// The paper: a replayer-batch job was throttled twice; while capped its
// thread count grew from ~8 to ~80 (work queuing up), and after each cap it
// dropped to 2 threads (self-induced lame-duck mode) for tens of minutes
// before reverting to 8. The victim's CPI fell during and for a while after
// each cap.

#include "bench/common/case_study.h"
#include "bench/common/report.h"
#include "workload/profiles.h"

namespace cpi2 {
namespace {

void Run() {
  PrintHeader("Case 5 (Figure 12)", "lame-duck tolerance of CPU hard-capping");
  PrintPaperClaim("threads ~8 -> ~80 while capped -> 2 (lame duck) -> back to 8;");
  PrintPaperClaim("victim CPI drops during caps and for a while after");

  CaseStudyOptions options;
  options.seed = 1205;
  options.tenants_on_case_machine = 20;
  options.enforcement = false;  // we script the two caps explicitly
  TaskSpec victim_spec = WebSearchLeafSpec();
  victim_spec.job_name = "query-serving";
  CaseStudy cs = MakeCaseStudy(victim_spec, options);
  ClusterHarness& harness = *cs.harness;
  harness.traces().Watch(cs.machine0, cs.victim_task);
  harness.traces().Watch(cs.machine0, "replayer-batch.x");

  TaskSpec antagonist = ReplayerBatchSpec();
  antagonist.base_cpu_demand = 2.2;
  antagonist.cache_mb = 14.0;
  antagonist.memory_intensity = 0.8;
  antagonist.lame_duck_duration = 25 * kMicrosPerMinute;
  (void)cs.machine0->AddTask("replayer-batch.x", antagonist);
  const Task* replayer = cs.machine0->FindTask("replayer-batch.x");

  const int base_threads = replayer->threads();
  PrintResult("threads_normal", base_threads);

  Agent* agent = harness.agent(cs.machine0->name());
  int threads_while_capped = 0;
  int threads_after_cap = 1 << 30;
  for (int episode = 0; episode < 2; ++episode) {
    harness.RunFor(10 * kMicrosPerMinute);
    (void)agent->enforcement().ManualCap("replayer-batch.x", 0.01, 8 * kMicrosPerMinute,
                                         harness.now());
    harness.RunFor(8 * kMicrosPerMinute);
    threads_while_capped = std::max(threads_while_capped, replayer->threads());
    harness.RunFor(2 * kMicrosPerMinute);
    threads_after_cap = std::min(threads_after_cap, replayer->threads());
  }
  PrintResult("threads_peak_while_capped", threads_while_capped);
  PrintResult("threads_in_lame_duck", threads_after_cap);

  // Wait out the lame-duck dwell and confirm reversion.
  harness.RunFor(30 * kMicrosPerMinute);
  PrintResult("threads_after_recovery", replayer->threads());

  const TaskTrace& trace = harness.traces().trace("replayer-batch.x");
  PrintSeriesPair("victim CPI", harness.traces().trace(cs.victim_task).cpi,
                  "antagonist CPU usage", trace.cpu_usage, 30);
  PrintSeries("antagonist thread count", trace.threads, 30);

  const bool shape = threads_while_capped >= 5 * base_threads && threads_after_cap <= 3 &&
                     replayer->threads() == base_threads;
  PrintResult("shape_holds",
              shape ? "yes (thread pile-up under cap, lame-duck dwell, full recovery)" : "NO");
}

}  // namespace
}  // namespace cpi2

int main() {
  cpi2::Run();
  return cpi2::VerdictExitCode();
}
