// Table 1: CPI specs (mean +/- stddev) of three representative
// latency-sensitive jobs, built through the real sample->aggregate pipeline.
//
// Paper values: Job A 0.88 +/- 0.09 (312 tasks); Job B 1.36 +/- 0.26 (1040
// tasks); Job C 2.03 +/- 0.20 (1250 tasks). Task counts here are scaled
// down ~10x; the statistics are what matter.

#include "bench/common/report.h"
#include "harness/cluster_harness.h"
#include "util/string_util.h"
#include "workload/profiles.h"

namespace cpi2 {
namespace {

void Run() {
  PrintHeader("Table 1", "CPI specs of representative latency-sensitive jobs");
  PrintPaperClaim("Job A 0.88+/-0.09 (312 tasks); Job B 1.36+/-0.26 (1040); Job C 2.03+/-0.20 (1250)");

  ClusterHarness::Options options;
  options.cluster.seed = 606;
  options.params.min_tasks_for_spec = 5;
  options.params.min_samples_per_task = 5;
  ClusterHarness harness(options);
  harness.cluster().AddMachines(ReferencePlatform(), 120);
  harness.cluster().BuildScheduler();

  struct Row {
    const char* label;
    TaskSpec spec;
    int tasks;
    double paper_mean;
    double paper_stddev;
  };
  const std::vector<Row> rows = {
      {"Job A", TableJobASpec(), 31, 0.88, 0.09},
      {"Job B", TableJobBSpec(), 104, 1.36, 0.26},
      {"Job C", TableJobCSpec(), 125, 2.03, 0.20},
  };
  for (const Row& row : rows) {
    JobSpec job;
    job.name = row.spec.job_name;
    job.task_count = row.tasks;
    job.task = row.spec;
    if (!harness.cluster().scheduler().SubmitJob(job).ok()) {
      PrintResult("error", "submission failed for " + job.name);
      return;
    }
  }
  harness.WireAgents();
  harness.PrimeSpecs(20 * kMicrosPerMinute);

  PrintSection("measured specs (vs paper)");
  PrintTableRow({"Job", "CPI (measured)", "CPI (paper)", "tasks", "samples"});
  bool shape = true;
  for (const Row& row : rows) {
    const auto spec =
        harness.aggregator().GetSpec(row.spec.job_name, ReferencePlatform().name);
    if (!spec.has_value()) {
      PrintTableRow({row.label, "(no spec)"});
      shape = false;
      continue;
    }
    PrintTableRow({row.label,
                   StrFormat("%.2f +/- %.2f", spec->cpi_mean, spec->cpi_stddev),
                   StrFormat("%.2f +/- %.2f", row.paper_mean, row.paper_stddev),
                   StrFormat("%d", row.tasks),
                   StrFormat("%lld", static_cast<long long>(spec->num_samples))});
    PrintResult(std::string(row.label) + "_cpi_mean", spec->cpi_mean);
    PrintResult(std::string(row.label) + "_cpi_stddev", spec->cpi_stddev);
    if (std::abs(spec->cpi_mean - row.paper_mean) > 0.25 * row.paper_mean) {
      shape = false;
    }
  }
  PrintResult("shape_holds", shape ? "yes (means within 25% of paper)" : "NO");
}

}  // namespace
}  // namespace cpi2

int main() {
  cpi2::Run();
  return cpi2::VerdictExitCode();
}
