// The introduction's motivating anecdote, reproduced end to end.
//
// "1/66 of user traffic for an application in a cluster had a latency of
// more than 200 ms rather than 40 ms for more than 1 hr" — and "replies
// from leaves that take too long to arrive are simply discarded, lowering
// the quality of the search result."
//
// We deploy a fan-out search service, let antagonists roam, and measure the
// user-visible tail (end-to-end query latency and result quality) with CPI2
// protection off and on.

#include <vector>

#include "bench/common/report.h"
#include "harness/cluster_harness.h"
#include "util/string_util.h"
#include "workload/profiles.h"
#include "workload/search_service.h"

namespace cpi2 {
namespace {

struct TailResult {
  double median_latency_ms = 0.0;
  double p99_latency_ms = 0.0;
  double slow_query_fraction = 0.0;  // queries slower than 250 ms
  double mean_quality = 1.0;
};

TailResult RunOnce(bool protection, uint64_t seed) {
  ClusterHarness::Options options;
  options.cluster.seed = seed;
  options.params.min_tasks_for_spec = 5;
  options.params.min_samples_per_task = 5;
  options.params.enforcement_enabled = protection;
  ClusterHarness harness(options);
  const int kMachines = 10;
  harness.cluster().AddMachines(ReferencePlatform(), kMachines);
  harness.cluster().BuildScheduler();

  SearchServiceOptions service_options;
  service_options.leaves = 20;
  service_options.intermediates = 4;
  service_options.discard_deadline_ms = 400.0;
  const auto service = DeploySearchService(&harness.cluster(), service_options);
  if (!service.ok()) {
    return {};
  }
  harness.WireAgents();
  harness.PrimeSpecs(12 * kMicrosPerMinute);

  // Antagonists land on a third of the machines.
  for (int m = 0; m < kMachines; m += 3) {
    (void)harness.cluster().machine(static_cast<size_t>(m))->AddTask(
        StrFormat("video-processing.%d", m), VideoProcessingSpec());
  }

  std::vector<double> latencies;
  double quality_sum = 0.0;
  int queries = 0;
  harness.cluster().AddTickListener([&](MicroTime now) {
    if (now % (10 * kMicrosPerSecond) != 0) {
      return;
    }
    const QueryOutcome outcome = EvaluateQuery(harness.cluster(), *service);
    latencies.push_back(outcome.latency_ms);
    quality_sum += outcome.result_quality;
    ++queries;
  });
  harness.RunFor(40 * kMicrosPerMinute);

  TailResult result;
  EmpiricalDistribution dist(latencies);
  result.median_latency_ms = dist.Percentile(0.5);
  result.p99_latency_ms = dist.Percentile(0.99);
  int slow = 0;
  for (double latency : latencies) {
    if (latency > 250.0) {  // the anecdote's "200 ms instead of 40 ms" regime
      ++slow;
    }
  }
  result.slow_query_fraction = latencies.empty() ? 0.0 : static_cast<double>(slow) / latencies.size();
  result.mean_quality = queries > 0 ? quality_sum / queries : 0.0;
  return result;
}

void Run() {
  PrintHeader("Intro anecdote", "user-visible tail latency with CPI2 off vs on");
  PrintPaperClaim("'1/66 of user traffic ... more than 200 ms rather than 40 ms'; late leaf");
  PrintPaperClaim("replies are discarded, lowering result quality");

  const TailResult off = RunOnce(false, 3003);
  const TailResult on = RunOnce(true, 3003);

  PrintTableRow({"", "CPI2 off", "CPI2 on"}, 24);
  PrintTableRow({"median query latency",
                 StrFormat("%.0f ms", off.median_latency_ms),
                 StrFormat("%.0f ms", on.median_latency_ms)},
                24);
  PrintTableRow({"p99 query latency", StrFormat("%.0f ms", off.p99_latency_ms),
                 StrFormat("%.0f ms", on.p99_latency_ms)},
                24);
  PrintTableRow({"queries slower than 250 ms",
                 StrFormat("%.2f%%", off.slow_query_fraction * 100.0),
                 StrFormat("%.2f%%", on.slow_query_fraction * 100.0)},
                24);
  PrintTableRow({"mean result quality", StrFormat("%.4f", off.mean_quality),
                 StrFormat("%.4f", on.mean_quality)},
                24);
  PrintResult("off_p99_ms", off.p99_latency_ms);
  PrintResult("on_p99_ms", on.p99_latency_ms);
  PrintResult("off_slow_fraction", off.slow_query_fraction);
  PrintResult("on_slow_fraction", on.slow_query_fraction);
  PrintResult("off_quality", off.mean_quality);
  PrintResult("on_quality", on.mean_quality);

  // Note: p99 stays elevated even with protection because caps expire and
  // interference recurs until re-detected (the Figure 9 cycle); the win is
  // in how much of the traffic sits in the slow regime.
  const bool shape = on.slow_query_fraction < 0.6 * off.slow_query_fraction &&
                     on.median_latency_ms < 0.9 * off.median_latency_ms &&
                     on.mean_quality >= off.mean_quality;
  PrintResult("shape_holds",
              shape ? "yes (protection shrinks the user-visible tail and preserves "
                      "result quality)"
                    : "NO");
}

}  // namespace
}  // namespace cpi2

int main() {
  cpi2::Run();
  return cpi2::VerdictExitCode();
}
