// Ablation: fixed hard-caps vs the feedback-driven adaptive throttle.
//
// Section 6.2: "we hard-capped the antagonists to only 0.01 CPU-sec/sec.
// That may be too harsh; a feedback-driven throttling that dynamically set
// the hard-capping target would be more appropriate; this is future work."
// This bench implements the comparison: protect the same victim from the
// same antagonist for 30 minutes using (a) no cap, (b) the paper's fixed
// 0.01 cap, (c) the fixed 0.1 cap, (d) AdaptiveThrottler. We report victim
// health and how much work the antagonist was still allowed to do.

#include "bench/common/report.h"
#include "core/adaptive_throttle.h"
#include "sim/machine.h"
#include "stats/streaming.h"
#include "util/string_util.h"
#include "workload/profiles.h"

namespace cpi2 {
namespace {

struct Outcome {
  double victim_mean_cpi = 0.0;
  double victim_fraction_unhealthy = 0.0;  // above 1.3x base CPI
  double antagonist_cpu_seconds = 0.0;
};

Outcome RunPolicy(const std::string& policy, uint64_t seed) {
  Machine machine("m0", ReferencePlatform(), seed);
  TaskSpec victim_spec = WebSearchLeafSpec();
  victim_spec.diurnal.amplitude = 0.0;
  (void)machine.AddTask("victim", victim_spec);
  (void)machine.AddTask("bad", CacheThrasherSpec(0.8));

  AdaptiveThrottler::Options adaptive_options;
  adaptive_options.initial_cap = 1.0;
  adaptive_options.target_degradation = 1.3;
  adaptive_options.adjust_interval = 30 * kMicrosPerSecond;
  AdaptiveThrottler throttler(adaptive_options, &machine);

  if (policy == "fixed-0.01") {
    (void)machine.SetCap("bad", 0.01);
  } else if (policy == "fixed-0.1") {
    (void)machine.SetCap("bad", 0.1);
  } else if (policy == "adaptive") {
    (void)throttler.Begin("bad", 0);
  }

  const Task* victim = machine.FindTask("victim");
  const Task* bad = machine.FindTask("bad");
  const double spec_mean = victim_spec.base_cpi;
  const double unhealthy_threshold = 1.3 * spec_mean;

  Outcome outcome;
  StreamingStats cpi;
  int unhealthy_ticks = 0;
  const int kTicks = 30 * 60;
  MicroTime now = 0;
  for (int s = 0; s < kTicks; ++s) {
    now += kMicrosPerSecond;
    machine.Tick(now, kMicrosPerSecond);
    if (policy == "adaptive") {
      (void)throttler.ObserveVictim("bad", victim->last_cpi(), spec_mean, now);
      if (!throttler.IsThrottling("bad")) {
        (void)throttler.Begin("bad", now);  // re-arm if it self-released
      }
    }
    cpi.Add(victim->last_cpi());
    if (victim->last_cpi() > unhealthy_threshold) {
      ++unhealthy_ticks;
    }
  }
  outcome.victim_mean_cpi = cpi.mean();
  outcome.victim_fraction_unhealthy = static_cast<double>(unhealthy_ticks) / kTicks;
  outcome.antagonist_cpu_seconds = bad->cpu_seconds();
  return outcome;
}

void Run() {
  PrintHeader("Ablation: adaptive vs fixed hard-caps",
              "the paper's future-work feedback-driven throttle, quantified");
  PrintPaperClaim("0.01 CPU-s/s 'may be too harsh'; adaptive throttling should protect the");
  PrintPaperClaim("victim while wasting less of the antagonist's work");

  PrintTableRow({"policy", "victim mean CPI", "unhealthy time", "antagonist CPU-s"}, 20);
  Outcome none;
  Outcome fixed001;
  Outcome adaptive;
  for (const std::string policy : {"none", "fixed-0.01", "fixed-0.1", "adaptive"}) {
    const Outcome outcome = RunPolicy(policy, 42);
    PrintTableRow({policy, StrFormat("%.2f", outcome.victim_mean_cpi),
                   StrFormat("%.0f%%", outcome.victim_fraction_unhealthy * 100.0),
                   StrFormat("%.0f", outcome.antagonist_cpu_seconds)},
                  20);
    PrintResult(policy + "_victim_cpi", outcome.victim_mean_cpi);
    PrintResult(policy + "_antagonist_cpu_s", outcome.antagonist_cpu_seconds);
    if (policy == "none") {
      none = outcome;
    }
    if (policy == "fixed-0.01") {
      fixed001 = outcome;
    }
    if (policy == "adaptive") {
      adaptive = outcome;
    }
  }

  // Shape: adaptive keeps the victim essentially as healthy as the harsh
  // fixed cap while letting the antagonist retire several times more work.
  const bool shape =
      adaptive.victim_fraction_unhealthy < 0.25 &&
      adaptive.victim_mean_cpi < 0.6 * none.victim_mean_cpi &&
      adaptive.antagonist_cpu_seconds > 3.0 * fixed001.antagonist_cpu_seconds;
  PrintResult("antagonist_work_ratio_adaptive_vs_fixed",
              adaptive.antagonist_cpu_seconds / fixed001.antagonist_cpu_seconds);
  PrintResult("shape_holds",
              shape ? "yes (victim protected; antagonist keeps several times more work)"
                    : "NO");
}

}  // namespace
}  // namespace cpi2

int main() {
  cpi2::Run();
  return cpi2::VerdictExitCode();
}
