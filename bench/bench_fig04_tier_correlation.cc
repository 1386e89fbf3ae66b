// Figure 4: per-task latency vs CPI across the three web-search tiers, on
// two hardware platforms.
//
// The paper: leaf and intermediate nodes are compute-bound and show
// correlation coefficients of 0.68-0.75 across 5-minute task samples; the
// root node's latency is dominated by waiting for children, so its
// correlation is poor. CPI is platform-specific, hence two point clouds.

#include <vector>

#include "bench/common/report.h"
#include "sim/cluster.h"
#include "stats/correlation.h"
#include "stats/streaming.h"
#include "util/string_util.h"
#include "workload/profiles.h"

namespace cpi2 {
namespace {

struct TierData {
  std::vector<double> cpi;
  std::vector<double> latency;
};

void Run() {
  PrintHeader("Figure 4",
              "per-task latency vs CPI for leaf / intermediate / root tiers");
  PrintPaperClaim("leaf+intermediate correlate (0.68-0.75); root does not (I/O-bound)");

  Cluster::Options options;
  options.seed = 404;
  Cluster cluster(options);
  cluster.AddMachines(ReferencePlatform(), 12);
  cluster.AddMachines(OlderPlatform(), 8);
  cluster.BuildScheduler();

  const std::vector<std::pair<std::string, TaskSpec>> tiers = {
      {"leaf", WebSearchLeafSpec()},
      {"intermediate", WebSearchIntermediateSpec()},
      {"root", WebSearchRootSpec()},
  };
  for (const auto& [tier, spec] : tiers) {
    JobSpec job;
    job.name = spec.job_name;
    job.task_count = 20;
    job.task = spec;
    (void)cluster.scheduler().SubmitJob(job);
  }
  // Varied co-tenants to spread the per-task interference levels.
  JobSpec fillers;
  fillers.name = "filler";
  fillers.task_count = 60;
  fillers.task = FillerBatchSpec(0.8);
  fillers.task.cache_mb = 6.0;
  fillers.task.memory_intensity = 0.5;
  (void)cluster.scheduler().SubmitJob(fillers);

  // Collect one (mean CPI, mean latency) point per task per 5 minutes.
  std::map<std::string, TierData> data;
  std::map<std::string, std::pair<StreamingStats, StreamingStats>> accumulators;
  MicroTime window_start = 0;
  MicroTime last_sample = 0;
  cluster.AddTickListener([&](MicroTime now) {
    if (now - last_sample < 10 * kMicrosPerSecond) {
      return;
    }
    last_sample = now;
    for (Machine* machine : cluster.machines()) {
      for (Task* task : machine->Tasks()) {
        const std::string& job = task->spec().job_name;
        if (job.rfind("websearch-", 0) != 0) {
          continue;
        }
        auto& [cpi_stats, latency_stats] = accumulators[task->name()];
        // Normalize CPI by the platform scale so the two platforms' clouds
        // can be pooled, as the paper's normalized axes do.
        cpi_stats.Add(task->last_cpi() / machine->platform().cpi_scale);
        latency_stats.Add(task->last_latency_ms());
      }
    }
    if (now - window_start >= 5 * kMicrosPerMinute) {
      for (auto& [task_name, stats] : accumulators) {
        const std::string tier = task_name.substr(10, task_name.rfind('.') - 10);
        data[tier].cpi.push_back(stats.first.mean());
        data[tier].latency.push_back(stats.second.mean());
        stats.first.Reset();
        stats.second.Reset();
      }
      window_start = now;
    }
  });

  cluster.RunFor(2 * kMicrosPerHour);

  PrintSection("per-tier correlation of 5-minute task samples");
  PrintTableRow({"tier", "samples", "corr(latency, CPI)"});
  double leaf_corr = 0.0;
  double root_corr = 0.0;
  for (const auto& [tier, tier_data] : data) {
    const double corr = PearsonCorrelation(tier_data.cpi, tier_data.latency);
    PrintTableRow({tier, StrFormat("%zu", tier_data.cpi.size()), StrFormat("%.3f", corr)});
    PrintResult("corr_" + tier, corr);
    if (tier == "leaf") {
      leaf_corr = corr;
    }
    if (tier == "root") {
      root_corr = corr;
    }
  }
  PrintResult("shape_holds",
              leaf_corr > 0.5 && root_corr < 0.35 && leaf_corr > root_corr + 0.3
                  ? "yes (leaf correlates, root does not)"
                  : "NO");
}

}  // namespace
}  // namespace cpi2

int main() {
  cpi2::Run();
  return cpi2::VerdictExitCode();
}
