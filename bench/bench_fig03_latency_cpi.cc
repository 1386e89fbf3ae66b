// Figure 3: request latency and CPI of a web-search leaf job over 24 hours.
//
// The paper normalizes both to their minimum over the day and reports a
// correlation coefficient of 0.97: when co-runner load inflates CPI, user
// latency moves with it.

#include <vector>

#include "bench/common/report.h"
#include "sim/cluster.h"
#include "stats/correlation.h"
#include "stats/streaming.h"
#include "util/string_util.h"
#include "workload/profiles.h"

namespace cpi2 {
namespace {

void Run() {
  PrintHeader("Figure 3",
              "normalized latency and CPI of a web-search leaf over 24 hours");
  PrintPaperClaim("latency and CPI move together over the day; correlation 0.97");

  Cluster::Options options;
  options.seed = 303;
  Cluster cluster(options);
  const int kMachines = 20;
  cluster.AddMachines(ReferencePlatform(), kMachines);
  cluster.BuildScheduler();

  // One leaf task per machine plus diurnal co-tenants whose peak-hours CPU
  // pressure is what moves the leaf's CPI.
  for (int m = 0; m < kMachines; ++m) {
    Machine* machine = cluster.machine(static_cast<size_t>(m));
    (void)machine->AddTask(StrFormat("websearch-leaf.%d", m), WebSearchLeafSpec());
    for (int f = 0; f < 5; ++f) {
      TaskSpec filler = FillerServiceSpec(0.4 + 0.15 * f);
      filler.job_name = StrFormat("filler-%d", f);
      filler.cache_mb = 4.0 + f;
      filler.memory_intensity = 0.4;
      (void)machine->AddTask(StrFormat("filler-%d.%d", f, m), filler);
    }
  }

  // 5-minute means of latency and CPI across all leaf tasks.
  std::vector<double> latency_means;
  std::vector<double> cpi_means;
  StreamingStats latency_window;
  StreamingStats cpi_window;
  MicroTime window_start = 0;
  MicroTime last_sample = 0;
  cluster.AddTickListener([&](MicroTime now) {
    if (now - last_sample < 10 * kMicrosPerSecond) {
      return;
    }
    last_sample = now;
    for (int m = 0; m < kMachines; ++m) {
      const Task* task =
          cluster.machine(static_cast<size_t>(m))->FindTask(StrFormat("websearch-leaf.%d", m));
      if (task != nullptr) {
        latency_window.Add(task->last_latency_ms());
        cpi_window.Add(task->last_cpi());
      }
    }
    if (now - window_start >= 5 * kMicrosPerMinute) {
      latency_means.push_back(latency_window.mean());
      cpi_means.push_back(cpi_window.mean());
      latency_window.Reset();
      cpi_window.Reset();
      window_start = now;
    }
  });

  cluster.RunFor(24 * kMicrosPerHour);

  double latency_min = latency_means[0];
  double cpi_min = cpi_means[0];
  for (size_t i = 0; i < latency_means.size(); ++i) {
    latency_min = std::min(latency_min, latency_means[i]);
    cpi_min = std::min(cpi_min, cpi_means[i]);
  }
  PrintSection("normalized 5-minute means (hourly rows shown)");
  PrintTableRow({"hour", "norm latency", "norm CPI"});
  for (size_t i = 0; i < latency_means.size(); i += 12) {
    PrintTableRow({StrFormat("%zu", i / 12),
                   StrFormat("%.3fx", latency_means[i] / latency_min),
                   StrFormat("%.3fx", cpi_means[i] / cpi_min)});
  }

  const double correlation = PearsonCorrelation(latency_means, cpi_means);
  PrintResult("latency_cpi_correlation", correlation);
  PrintResult("shape_holds", correlation > 0.9 ? "yes (paper: 0.97)" : "NO");
}

}  // namespace
}  // namespace cpi2

int main() {
  cpi2::Run();
  return cpi2::VerdictExitCode();
}
