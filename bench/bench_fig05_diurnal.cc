// Figure 5: average CPI of thousands of web-search leaf tasks over 5 days.
//
// The paper shows a diurnal CPI pattern with a coefficient of variation of
// about 4%: CPI is stable enough over time that yesterday's spec predicts
// today's behaviour.

#include "bench/common/report.h"
#include "sim/cluster.h"
#include "stats/streaming.h"
#include "util/string_util.h"
#include "util/time_series.h"
#include "workload/profiles.h"

namespace cpi2 {
namespace {

void Run() {
  PrintHeader("Figure 5", "mean web-search leaf CPI across 5 days");
  PrintPaperClaim("diurnal pattern, coefficient of variation ~4%");

  Cluster::Options options;
  options.seed = 505;
  options.tick = 5 * kMicrosPerSecond;  // coarse ticks: 5 simulated days
  Cluster cluster(options);
  const int kMachines = 15;
  cluster.AddMachines(ReferencePlatform(), kMachines);
  cluster.BuildScheduler();

  for (int m = 0; m < kMachines; ++m) {
    Machine* machine = cluster.machine(static_cast<size_t>(m));
    (void)machine->AddTask(StrFormat("websearch-leaf.%d", m), WebSearchLeafSpec());
    for (int f = 0; f < 3; ++f) {
      TaskSpec filler = FillerServiceSpec(0.3 + 0.15 * f);
      filler.job_name = StrFormat("filler-%d", f);
      filler.cache_mb = 3.0;
      filler.memory_intensity = 0.3;
      (void)machine->AddTask(StrFormat("filler-%d.%d", f, m), filler);
    }
  }

  TimeSeries mean_cpi;  // one point per 30 minutes
  StreamingStats window;
  MicroTime window_start = 0;
  cluster.AddTickListener([&](MicroTime now) {
    for (int m = 0; m < kMachines; ++m) {
      const Task* task =
          cluster.machine(static_cast<size_t>(m))->FindTask(StrFormat("websearch-leaf.%d", m));
      if (task != nullptr) {
        window.Add(task->last_cpi());
      }
    }
    if (now - window_start >= 30 * kMicrosPerMinute) {
      mean_cpi.Append(now, window.mean());
      window.Reset();
      window_start = now;
    }
  });

  cluster.RunFor(5 * kMicrosPerDay);

  PrintSeries("mean leaf CPI, 30-minute means over 5 days", mean_cpi, 40);

  StreamingStats overall;
  for (size_t i = 0; i < mean_cpi.size(); ++i) {
    overall.Add(mean_cpi[i].value);
  }
  PrintResult("mean_cpi", overall.mean());
  PrintResult("coefficient_of_variation", overall.coefficient_of_variation());

  // Diurnal check: peak-hour CPI (12:00-16:00) exceeds trough (00:00-04:00).
  StreamingStats peak;
  StreamingStats trough;
  for (size_t i = 0; i < mean_cpi.size(); ++i) {
    const MicroTime tod = mean_cpi[i].timestamp % kMicrosPerDay;
    if (tod >= 12 * kMicrosPerHour && tod < 16 * kMicrosPerHour) {
      peak.Add(mean_cpi[i].value);
    } else if (tod < 4 * kMicrosPerHour) {
      trough.Add(mean_cpi[i].value);
    }
  }
  PrintResult("peak_hours_mean_cpi", peak.mean());
  PrintResult("trough_hours_mean_cpi", trough.mean());
  const bool shape = overall.coefficient_of_variation() < 0.10 && peak.mean() > trough.mean();
  PrintResult("shape_holds", shape ? "yes (diurnal, CV of a few percent)" : "NO");
}

}  // namespace
}  // namespace cpi2

int main() {
  cpi2::Run();
  return cpi2::VerdictExitCode();
}
