// Case 1 / Figure 8: antagonist identification on a 57-tenant machine.
//
// The paper: a latency-sensitive task's CPI rose from ~2.0 to 5.0; the
// machine had 57 tenants; CPI2's top-5 suspect table put a video-processing
// batch job first (correlation 0.46) ahead of four latency-sensitive
// services (0.39-0.44); the victim's CPI tracked the antagonist's CPU usage;
// an administrator killed the antagonist and the victim recovered.

#include "bench/common/case_study.h"
#include "bench/common/report.h"
#include "stats/streaming.h"
#include "workload/profiles.h"

namespace cpi2 {
namespace {

double RecentMean(const TimeSeries& series, MicroTime now, MicroTime window) {
  StreamingStats stats;
  for (const TimePoint& p : View(series, now - window, now + 1)) {
    stats.Add(p.value);
  }
  return stats.mean();
}

void Run() {
  PrintHeader("Case 1 (Figure 8)", "suspect table on a 57-tenant machine; kill to resolve");
  PrintPaperClaim("victim CPI 2.0 -> 5.0; top suspect: video processing (batch, corr 0.46),");
  PrintPaperClaim("next 4 suspects latency-sensitive (0.39-0.44); kill restored performance");

  CaseStudyOptions options;
  options.seed = 801;
  options.tenants_on_case_machine = 56;  // + the victim = 57 tenants
  options.enforcement = false;           // this incident predates auto-enforcement
  TaskSpec victim_spec = WebSearchLeafSpec();
  victim_spec.job_name = "latency-sensitive-svc";
  victim_spec.base_cpi = 2.0;
  CaseStudy cs = MakeCaseStudy(victim_spec, options);
  ClusterHarness& harness = *cs.harness;

  // Watch traces for the figure.
  harness.traces().Watch(cs.machine0, cs.victim_task);
  harness.traces().Watch(cs.machine0, "video-processing.x");

  const Task* victim = cs.machine0->FindTask(cs.victim_task);
  Agent* agent = harness.agent(cs.machine0->name());
  const double baseline =
      RecentMean(*agent->CpiSeries(cs.victim_task), harness.now(), 10 * kMicrosPerMinute);
  PrintResult("baseline_victim_cpi", baseline);

  // 2:00am: the video-processing job lands.
  (void)cs.machine0->AddTask("video-processing.x", VideoProcessingSpec());
  const Incident incident =
      WaitForIncident(harness, cs.victim_task, 15 * kMicrosPerMinute);
  if (incident.victim_task.empty()) {
    PrintResult("shape_holds", "NO (no incident fired)");
    return;
  }
  PrintResult("victim_cpi_at_incident", incident.victim_cpi);
  PrintSuspectTable(incident, 5);
  PrintResult("top_suspect", incident.suspects.front().jobname);
  PrintResult("top_correlation", incident.suspects.front().correlation);

  int batch_in_top5 = 0;
  for (size_t i = 0; i < incident.suspects.size() && i < 5; ++i) {
    if (incident.suspects[i].workload_class == WorkloadClass::kBatch) {
      ++batch_in_top5;
    }
  }
  PrintResult("batch_suspects_in_top5", batch_in_top5);

  // Keep hurting a while for the trace, then the administrator kills it.
  harness.RunFor(5 * kMicrosPerMinute);
  (void)cs.machine0->RemoveTask("video-processing.x");
  harness.RunFor(8 * kMicrosPerMinute);

  PrintSeriesPair("victim CPI", harness.traces().trace(cs.victim_task).cpi,
                  "antagonist CPU usage",
                  harness.traces().trace("video-processing.x").cpu_usage, 24);

  const double recovered =
      RecentMean(*agent->CpiSeries(cs.victim_task), harness.now(), 5 * kMicrosPerMinute);
  PrintResult("victim_cpi_after_kill", recovered);
  const bool shape = incident.suspects.front().jobname == "video-processing" &&
                     incident.victim_cpi > 1.8 * baseline && recovered < 1.3 * baseline;
  PrintResult("shape_holds",
              shape ? "yes (video-processing top; CPI spiked; kill restored)" : "NO");
}

}  // namespace
}  // namespace cpi2

int main() {
  cpi2::Run();
  return cpi2::VerdictExitCode();
}
