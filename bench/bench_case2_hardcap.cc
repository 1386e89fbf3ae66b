// Case 2 / Figure 9: hard-capping works and its effect reverses on expiry.
//
// The paper: 1 of 354 tasks on a 43-tenant machine kept crossing its CPI
// threshold (1.7); CPI2 picked a best-effort batch job; capping it for ~15
// minutes dropped the victim's CPI from ~2.0 to ~1.0; once the cap lapsed
// the antagonist resumed and the victim's CPI rose again.

#include "bench/common/case_study.h"
#include "bench/common/report.h"
#include "stats/streaming.h"
#include "workload/profiles.h"

namespace cpi2 {
namespace {

double WindowMean(const TimeSeries& series, MicroTime begin, MicroTime end) {
  StreamingStats stats;
  for (const TimePoint& p : View(series, begin, end)) {
    stats.Add(p.value);
  }
  return stats.mean();
}

void Run() {
  PrintHeader("Case 2 (Figure 9)", "manual 15-minute hard-cap of a best-effort batch job");
  PrintPaperClaim("victim CPI ~2.0 -> ~1.0 while capped; rises again after the cap ends");

  CaseStudyOptions options;
  options.seed = 902;
  options.tenants_on_case_machine = 42;  // + victim = 43 tenants
  options.enforcement = false;           // operator-driven capping
  TaskSpec victim_spec = WebSearchLeafSpec();
  victim_spec.job_name = "victim-svc";
  victim_spec.base_cpi = 1.3;
  CaseStudy cs = MakeCaseStudy(victim_spec, options);
  ClusterHarness& harness = *cs.harness;
  harness.traces().Watch(cs.machine0, cs.victim_task);
  harness.traces().Watch(cs.machine0, "besteffort-batch.x");

  TaskSpec antagonist = CacheThrasherSpec(0.85);
  antagonist.job_name = "besteffort-batch";
  (void)cs.machine0->AddTask("besteffort-batch.x", antagonist);

  const Incident incident =
      WaitForIncident(harness, cs.victim_task, 15 * kMicrosPerMinute);
  if (incident.victim_task.empty() ||
      incident.suspects.front().jobname != "besteffort-batch") {
    PrintResult("shape_holds", "NO (antagonist not identified)");
    return;
  }
  PrintResult("identified_correlation", incident.suspects.front().correlation);

  // Operator applies a ~15 minute hard-cap.
  Agent* agent = harness.agent(cs.machine0->name());
  const MicroTime cap_start = harness.now();
  (void)agent->enforcement().ManualCap("besteffort-batch.x", 0.01, 14 * kMicrosPerMinute,
                                       cap_start);
  harness.RunFor(14 * kMicrosPerMinute);
  const MicroTime cap_end = harness.now();
  harness.RunFor(12 * kMicrosPerMinute);  // post-cap rebound

  const TaskTrace& victim_trace = harness.traces().trace(cs.victim_task);
  PrintSeriesPair("victim CPI", victim_trace.cpi, "antagonist CPU usage",
                  harness.traces().trace("besteffort-batch.x").cpu_usage, 30);

  const double before = WindowMean(victim_trace.cpi, cap_start - 5 * kMicrosPerMinute, cap_start);
  const double during = WindowMean(victim_trace.cpi, cap_start + kMicrosPerMinute, cap_end);
  const double after = WindowMean(victim_trace.cpi, cap_end + 2 * kMicrosPerMinute,
                                  cap_end + 12 * kMicrosPerMinute);
  PrintResult("victim_cpi_before_cap", before);
  PrintResult("victim_cpi_during_cap", during);
  PrintResult("victim_cpi_after_cap_expires", after);
  PrintResult("relative_cpi_during", during / before);

  const bool shape = during < 0.7 * before && after > 1.25 * during;
  PrintResult("shape_holds",
              shape ? "yes (capping relieves the victim; effect reverses on expiry)" : "NO");
}

}  // namespace
}  // namespace cpi2

int main() {
  cpi2::Run();
  return cpi2::VerdictExitCode();
}
