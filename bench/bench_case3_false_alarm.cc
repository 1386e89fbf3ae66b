// Case 3 / Figure 10: a self-inflicted false alarm, and the usage floor
// that filters it.
//
// The paper: a front-end web service's CPI fluctuated between ~3 and ~10 on
// a 29-tenant machine, but the best suspect correlation was only 0.07 — the
// swings were caused by the task's own bimodal CPU usage (high CPI exactly
// when usage dropped to near zero). The >= 0.25 CPU-s/s usage floor was
// added to filter this class of false alarm. We reproduce the pattern and
// ablate the floor.

#include "bench/common/case_study.h"
#include "bench/common/report.h"
#include "workload/profiles.h"

namespace cpi2 {
namespace {

// Counts incidents fired for the bimodal task under the given usage floor.
struct FloorResult {
  int incidents = 0;
  double top_correlation = 0.0;
};

FloorResult RunWithFloor(double min_cpu_usage, uint64_t seed) {
  CaseStudyOptions options;
  options.seed = seed;
  options.tenants_on_case_machine = 28;  // + victim = 29 tenants
  options.enforcement = false;
  options.params.min_cpu_usage = min_cpu_usage;
  // The spec trains while the service is in its busy phase; the bimodal
  // pattern begins after priming (the paper's spec predated the episode).
  TaskSpec victim = BimodalFrontendSpec();
  victim.mode_half_period = 3 * kMicrosPerMinute;
  victim.mode_start_time = 16 * kMicrosPerMinute;  // just after spec priming
  CaseStudy cs = MakeCaseStudy(victim, options);
  ClusterHarness& harness = *cs.harness;

  cs.harness->traces().Watch(cs.machine0, cs.victim_task);
  const size_t before = harness.incidents().size();
  harness.RunFor(60 * kMicrosPerMinute);

  FloorResult result;
  for (size_t i = before; i < harness.incidents().size(); ++i) {
    const Incident& incident = harness.incidents().incidents()[i];
    if (incident.victim_task != cs.victim_task) {
      continue;
    }
    ++result.incidents;
    if (!incident.suspects.empty()) {
      result.top_correlation =
          std::max(result.top_correlation, incident.suspects.front().correlation);
    }
  }

  // Print the tell-tale trace once (from the run with the paper's floor).
  if (min_cpu_usage > 0.0) {
    PrintSeriesPair("\"victim\" CPI", harness.traces().trace(cs.victim_task).cpi,
                    "\"victim\" CPU usage",
                    harness.traces().trace(cs.victim_task).cpu_usage, 30);
  }
  return result;
}

void Run() {
  PrintHeader("Case 3 (Figure 10)", "self-inflicted CPI swings and the usage floor");
  PrintPaperClaim("CPI swings 3 <-> 10 opposite to the task's own bimodal usage;");
  PrintPaperClaim("best suspect correlation only 0.07 -> no action; usage floor filters it");

  PrintSection("with the paper's 0.25 CPU-s/s usage floor");
  const FloorResult with_floor = RunWithFloor(0.25, 1003);
  PrintResult("incidents_with_floor", with_floor.incidents);

  PrintSection("ablation: usage floor removed");
  const FloorResult no_floor = RunWithFloor(0.0, 1003);
  PrintResult("incidents_without_floor", no_floor.incidents);
  PrintResult("max_top_correlation_without_floor", no_floor.top_correlation);

  const bool shape = with_floor.incidents == 0 && no_floor.incidents > 0 &&
                     no_floor.top_correlation < 0.35;
  PrintResult("shape_holds",
              shape ? "yes (floor silences the false alarm; even unfiltered, no suspect "
                      "clears 0.35 so no one would be throttled)"
                    : "NO");
}

}  // namespace
}  // namespace cpi2

int main() {
  cpi2::Run();
  return cpi2::VerdictExitCode();
}
