// Section 2's MapReduce argument, quantified.
//
// "Although identifying laggards and starting up replacements for them in a
// timely fashion often improves performance, it typically does so at the
// cost of additional resources ... Better would be to eliminate the
// original slowdown."
//
// One MapReduce job; one shard's machine hosts a cache-thrashing
// antagonist. Three mitigation policies:
//   none        — the straggler drags job completion;
//   speculation — a backup replica races the straggler: faster, but burns
//                 redundant CPU;
//   CPI2        — the job opts into protection, the antagonist is capped,
//                 and the original shard simply finishes: fastest-or-equal
//                 with no redundant work.

#include "bench/common/report.h"
#include "harness/cluster_harness.h"
#include "util/string_util.h"
#include "workload/mapreduce.h"
#include "workload/profiles.h"

namespace cpi2 {
namespace {

struct Outcome {
  double completion_minutes = 0.0;
  double total_cpu_seconds = 0.0;
  int backups = 0;
  bool finished = false;
};

Outcome RunPolicy(bool speculation, bool cpi2_protection, uint64_t seed) {
  ClusterHarness::Options options;
  options.cluster.seed = seed;
  options.params.min_tasks_for_spec = 5;
  options.params.min_samples_per_task = 5;
  options.params.enforcement_enabled = cpi2_protection;
  ClusterHarness harness(options);
  const int kMachines = 8;
  harness.cluster().AddMachines(ReferencePlatform(), kMachines);
  harness.cluster().BuildScheduler();

  MapReduceOptions mr;
  mr.name = "mr";
  mr.shards = 8;
  mr.instructions_per_shard = 3.6e12;  // ~20 minutes per shard
  mr.worker = MapReduceWorkerSpec();
  mr.worker.cap_behavior = CapBehavior::kTolerate;  // isolate the policy effect
  mr.worker.contention_sensitivity = 0.7;  // cache-hungry sort/shuffle phase
  // The job opts into CPI2 protection (section 5's explicit eligibility):
  // batch victims are otherwise not defended.
  mr.worker.protection_opt_in = true;
  mr.speculative_execution = speculation;
  mr.speculation_grace = 5 * kMicrosPerMinute;
  mr.straggler_factor = 1.3;
  MapReduceJob job(&harness.cluster(), mr);
  if (!job.Submit().ok()) {
    return {};
  }
  const MicroTime job_start = harness.now();
  harness.WireAgents();
  harness.cluster().AddTickListener([&job](MicroTime now) { job.OnTick(now); });
  // The job runs while its spec trains (it is long-lived enough for both).
  harness.PrimeSpecs(12 * kMicrosPerMinute);

  // The antagonist lands next to shard 0, a third of the way into the job.
  Machine* victim_machine = harness.cluster().scheduler().LocateTask("mr.0");
  if (victim_machine == nullptr) {
    return {};
  }
  TaskSpec antagonist = CacheThrasherSpec(0.9);
  antagonist.base_cpu_demand = 8.0;
  antagonist.demand_cv = 0.1;
  (void)victim_machine->AddTask("thrasher.x", antagonist);

  const MicroTime deadline = harness.now() + 70 * kMicrosPerMinute;
  while (!job.Done() && harness.now() < deadline) {
    harness.cluster().Tick();
  }

  Outcome outcome;
  outcome.finished = job.Done();
  outcome.completion_minutes =
      static_cast<double>((job.Done() ? job.completion_time() : deadline) - job_start) /
      kMicrosPerMinute;
  outcome.total_cpu_seconds = job.total_cpu_seconds();
  outcome.backups = job.backups_launched();
  return outcome;
}

void Run() {
  PrintHeader("MapReduce stragglers (section 2)",
              "speculative execution vs eliminating the slowdown with CPI2");
  PrintPaperClaim("backup tasks improve completion 'at the cost of additional resources';");
  PrintPaperClaim("'Better would be to eliminate the original slowdown.'");

  const uint64_t kSeed = 6006;
  const Outcome none = RunPolicy(false, false, kSeed);
  const Outcome speculation = RunPolicy(true, false, kSeed);
  const Outcome cpi2 = RunPolicy(false, true, kSeed);

  PrintTableRow({"policy", "completion", "total CPU-s", "backups"}, 18);
  const auto row = [](const char* name, const Outcome& outcome) {
    PrintTableRow({name,
                   outcome.finished ? StrFormat("%.1f min", outcome.completion_minutes)
                                    : "timeout",
                   StrFormat("%.0f", outcome.total_cpu_seconds),
                   StrFormat("%d", outcome.backups)},
                  18);
  };
  row("none", none);
  row("speculation", speculation);
  row("CPI2", cpi2);
  PrintResult("none_completion_min", none.completion_minutes);
  PrintResult("speculation_completion_min", speculation.completion_minutes);
  PrintResult("cpi2_completion_min", cpi2.completion_minutes);
  PrintResult("speculation_cpu_s", speculation.total_cpu_seconds);
  PrintResult("cpi2_cpu_s", cpi2.total_cpu_seconds);

  const bool shape = cpi2.finished && speculation.finished &&
                     cpi2.completion_minutes < none.completion_minutes &&
                     speculation.completion_minutes < none.completion_minutes &&
                     cpi2.total_cpu_seconds < speculation.total_cpu_seconds &&
                     cpi2.backups == 0;
  PrintResult("shape_holds",
              shape ? "yes (both mitigations beat doing nothing; CPI2 does it without "
                      "redundant work)"
                    : "NO");
}

}  // namespace
}  // namespace cpi2

int main() {
  cpi2::Run();
  return cpi2::VerdictExitCode();
}
