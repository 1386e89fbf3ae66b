// Fault resilience of the sample -> spec -> enforcement pipeline.
//
// Two experiments, both on an 8-machine victim/antagonist scenario:
//
//  1. Loss sweep: uniform sample loss from 0% to 40% on top of periodic
//     aggregator outages. Reports how collection volume and detection hold
//     up as the transport degrades (the paper's pipeline tolerates loss
//     because detection is local; loss only starves spec freshness).
//
//  2. Stale-spec safety: 20% loss plus a periodic aggregator outage, with
//     spec refresh disabled so the pushed specs age past the staleness TTL
//     mid-run. The hardening claim under test: once specs go stale, the
//     agents suppress enforcement entirely — zero hard-caps after the
//     suppression horizon, antagonist or not ("never cap on dead data").
//
// Writes one JSON line to BENCH_fault_resilience.json so CI can track the
// resilience envelope across PRs.

#include <cstdio>
#include <string>
#include <vector>

#include "bench/common/report.h"
#include "harness/cluster_harness.h"
#include "util/logging.h"
#include "util/string_util.h"
#include "workload/profiles.h"

namespace cpi2 {
namespace {

constexpr int kMachines = 8;
constexpr MicroTime kPrime = 12 * kMicrosPerMinute;
constexpr MicroTime kRun = 15 * kMicrosPerMinute;

struct ScenarioResult {
  int64_t samples_collected = 0;
  int64_t incidents = 0;
  int64_t hard_caps = 0;
  int64_t hard_caps_after_stale = 0;
  int64_t noncrit_caps_after_stale = 0;  // caps on anyone but the antagonist
  bool victim_spec_built = false;
  ClusterHealthReport health;
};

// Builds the victim scenario, primes specs, injects one antagonist on
// machine 0, and runs under the given fault configuration. When
// `staleness_ttl` > 0 spec refresh is disabled so the primed specs age out.
ScenarioResult RunScenario(double sample_loss, const FaultPlane::Options& faults,
                           MicroTime staleness_ttl) {
  ClusterHarness::Options options;
  options.cluster.seed = 20130415;
  options.params.min_tasks_for_spec = 5;
  options.params.min_samples_per_task = 5;
  options.params.spec_update_interval =
      staleness_ttl > 0 ? 24 * kMicrosPerHour : 30 * kMicrosPerMinute;
  options.params.spec_staleness_ttl = staleness_ttl;
  options.faults = faults;
  options.faults.sample_loss_rate = sample_loss;
  ClusterHarness harness(options);
  harness.cluster().AddMachines(ReferencePlatform(), kMachines);
  harness.cluster().BuildScheduler();
  for (int i = 0; i < kMachines; ++i) {
    Machine* machine = harness.cluster().machine(static_cast<size_t>(i));
    (void)machine->AddTask(StrFormat("websearch-leaf.%d", i), WebSearchLeafSpec());
    (void)machine->AddTask(StrFormat("filler-svc.%d", i), FillerServiceSpec(0.3));
  }
  harness.WireAgents();
  harness.PrimeSpecs(kPrime);
  const MicroTime primed_at = harness.now();
  const std::string antagonist = "video-processing.0";
  (void)harness.cluster().machine(0)->AddTask(antagonist, VideoProcessingSpec());
  harness.RunFor(kRun);

  ScenarioResult result;
  result.samples_collected = harness.samples_collected();
  result.victim_spec_built =
      harness.aggregator().GetSpec("websearch-leaf", ReferencePlatform().name).has_value();
  result.health = harness.Health();
  const MicroTime stale_horizon =
      staleness_ttl > 0
          ? primed_at + static_cast<MicroTime>(
                            options.params.stale_suppress_factor *
                            static_cast<double>(staleness_ttl))
          : 0;
  for (const Incident& incident : harness.incidents().incidents()) {
    ++result.incidents;
    if (incident.action != IncidentAction::kHardCap) {
      continue;
    }
    ++result.hard_caps;
    if (staleness_ttl > 0 && incident.timestamp > stale_horizon) {
      ++result.hard_caps_after_stale;
      if (incident.action_target != antagonist) {
        ++result.noncrit_caps_after_stale;
      }
    }
  }
  return result;
}

int Main() {
  SetMinLogLevel(LogLevel::kError);
  PrintHeader("fault_resilience",
              "Pipeline behavior under sample loss, aggregator outages, and "
              "stale specs (degraded-mode hardening)");
  PrintPaperClaim("(robustness benchmark, no paper counterpart: section 5's pipeline "
                  "assumes samples arrive and specs stay fresh; this measures what the "
                  "hardened implementation does when they don't)");

  // Periodic outage shared by both experiments: 45 s down every 5 min.
  FaultPlane::Options outage;
  outage.aggregator_outage_period = 5 * kMicrosPerMinute;
  outage.aggregator_outage_duration = 45 * kMicrosPerSecond;
  outage.aggregator_outage_phase = 2 * kMicrosPerMinute;

  std::string json = "{\"bench\":\"fault_resilience\"";

  PrintSection("Loss sweep (with periodic aggregator outage)");
  const std::vector<double> loss_rates = {0.0, 0.1, 0.2, 0.4};
  for (double loss : loss_rates) {
    const ScenarioResult r = RunScenario(loss, outage, /*staleness_ttl=*/0);
    const int pct = static_cast<int>(loss * 100 + 0.5);
    PrintResult(StrFormat("samples_collected_loss_%d", pct),
                static_cast<double>(r.samples_collected));
    PrintResult(StrFormat("incidents_loss_%d", pct), static_cast<double>(r.incidents));
    PrintResult(StrFormat("delivery_retries_loss_%d", pct),
                static_cast<double>(r.health.agents.delivery_retries));
    PrintResult(StrFormat("victim_spec_built_loss_%d", pct),
                r.victim_spec_built ? 1.0 : 0.0);
    json += StrFormat(
        ",\"loss_%d\":{\"samples\":%lld,\"incidents\":%lld,\"hard_caps\":%lld,"
        "\"retries\":%lld,\"spec_built\":%s}",
        pct, static_cast<long long>(r.samples_collected),
        static_cast<long long>(r.incidents), static_cast<long long>(r.hard_caps),
        static_cast<long long>(r.health.agents.delivery_retries),
        r.victim_spec_built ? "true" : "false");
  }

  PrintSection("Stale-spec safety (20% loss, outages, no spec refresh)");
  const ScenarioResult stale =
      RunScenario(/*sample_loss=*/0.2, outage, /*staleness_ttl=*/3 * kMicrosPerMinute);
  PrintResult("stale_incidents_total", static_cast<double>(stale.incidents));
  PrintResult("stale_hard_caps_total", static_cast<double>(stale.hard_caps));
  PrintResult("stale_hard_caps_after_horizon",
              static_cast<double>(stale.hard_caps_after_stale));
  PrintResult("stale_noncritical_caps_after_horizon",
              static_cast<double>(stale.noncrit_caps_after_stale));
  PrintResult("stale_spec_widenings", static_cast<double>(stale.health.agents.stale_spec_widenings));
  PrintResult("stale_spec_suppressions",
              static_cast<double>(stale.health.agents.stale_spec_suppressions));
  if (stale.hard_caps_after_stale != 0) {
    PrintResult("STALE_SAFETY_VIOLATION", static_cast<double>(stale.hard_caps_after_stale));
  }
  json += StrFormat(
      ",\"stale\":{\"incidents\":%lld,\"hard_caps\":%lld,\"caps_after_horizon\":%lld,"
      "\"noncritical_caps_after_horizon\":%lld,\"widenings\":%lld,\"suppressions\":%lld}",
      static_cast<long long>(stale.incidents), static_cast<long long>(stale.hard_caps),
      static_cast<long long>(stale.hard_caps_after_stale),
      static_cast<long long>(stale.noncrit_caps_after_stale),
      static_cast<long long>(stale.health.agents.stale_spec_widenings),
      static_cast<long long>(stale.health.agents.stale_spec_suppressions));
  json += "}";

  std::printf("%s\n", json.c_str());
  if (FILE* f = std::fopen("BENCH_fault_resilience.json", "w"); f != nullptr) {
    std::fprintf(f, "%s\n", json.c_str());
    std::fclose(f);
  }
  return 0;
}

}  // namespace
}  // namespace cpi2

int main() { return cpi2::Main(); }
