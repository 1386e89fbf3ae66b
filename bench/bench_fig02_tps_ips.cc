// Figure 2: application transactions/sec vs CPU instructions/sec for a
// large batch job, 10-minute means over 2 hours.
//
// The paper reports a correlation coefficient of 0.97 between the two
// normalized rates, establishing that IPS (and hence CPI) tracks
// application-level throughput.

#include <vector>

#include "bench/common/report.h"
#include "sim/cluster.h"
#include "stats/correlation.h"
#include "util/string_util.h"
#include "workload/profiles.h"

namespace cpi2 {
namespace {

void Run() {
  PrintHeader("Figure 2",
              "normalized TPS and IPS of a batch job, 10-minute means over 2 hours");
  PrintPaperClaim("the two rates track each other; correlation coefficient 0.97");

  Cluster::Options options;
  options.seed = 202;
  Cluster cluster(options);
  cluster.AddMachines(ReferencePlatform(), 40);
  cluster.BuildScheduler();

  JobSpec job;
  job.name = "batch-analytics";
  job.task_count = 240;  // scaled-down stand-in for the paper's 2600-task job
  job.task = BatchAnalyticsSpec();
  if (!cluster.scheduler().SubmitJob(job).ok()) {
    PrintResult("error", "job submission failed");
    return;
  }

  // Aggregate TPS and IPS across all tasks once per 10 seconds; fold into
  // 10-minute windows.
  std::vector<double> tps_windows;
  std::vector<double> ips_windows;
  double tps_accum = 0.0;
  double ips_accum = 0.0;
  int samples_in_window = 0;
  MicroTime window_start = 0;
  MicroTime last_sample = 0;
  cluster.AddTickListener([&](MicroTime now) {
    if (now - last_sample < 10 * kMicrosPerSecond) {
      return;
    }
    last_sample = now;
    double tps = 0.0;
    double ips = 0.0;
    for (Machine* machine : cluster.machines()) {
      for (Task* task : machine->Tasks()) {
        tps += task->last_tps();
        if (task->last_cpi() > 0.0) {
          ips += task->last_usage() * machine->platform().CyclesPerSecond() / task->last_cpi();
        }
      }
    }
    tps_accum += tps;
    ips_accum += ips;
    ++samples_in_window;
    if (now - window_start >= 10 * kMicrosPerMinute) {
      tps_windows.push_back(tps_accum / samples_in_window);
      ips_windows.push_back(ips_accum / samples_in_window);
      tps_accum = ips_accum = 0.0;
      samples_in_window = 0;
      window_start = now;
    }
  });

  cluster.RunFor(2 * kMicrosPerHour);

  // Normalize to the minimum (as the paper does) and print.
  double tps_min = tps_windows[0];
  double ips_min = ips_windows[0];
  for (size_t i = 0; i < tps_windows.size(); ++i) {
    tps_min = std::min(tps_min, tps_windows[i]);
    ips_min = std::min(ips_min, ips_windows[i]);
  }
  PrintSection("normalized 10-minute means");
  PrintTableRow({"t (min)", "norm TPS", "norm IPS"});
  for (size_t i = 0; i < tps_windows.size(); ++i) {
    PrintTableRow({StrFormat("%zu0", i), StrFormat("%.3fx", tps_windows[i] / tps_min),
                   StrFormat("%.3fx", ips_windows[i] / ips_min)});
  }

  const double correlation = PearsonCorrelation(tps_windows, ips_windows);
  PrintResult("tps_ips_correlation", correlation);
  PrintResult("windows", static_cast<double>(tps_windows.size()));
  PrintResult("shape_holds", correlation > 0.9 ? "yes (paper: 0.97)" : "NO");
}

}  // namespace
}  // namespace cpi2

int main() {
  cpi2::Run();
  return cpi2::VerdictExitCode();
}
