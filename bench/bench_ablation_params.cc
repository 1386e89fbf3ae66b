// Ablation: the detector's Table 2 thresholds.
//
// Sweeps the outlier sigma threshold (1/2/3 sigma) and the
// violations-in-window requirement (1/3/5) on two scenarios: a genuine
// antagonist (measure time-to-detection) and a quiet cluster (measure false
// incidents). The paper's 2 sigma + 3-in-5-minutes sits where detection is
// still fast but quiet clusters stay quiet.

#include "bench/common/report.h"
#include "tests/testing/scenario.h"
#include "util/string_util.h"

namespace cpi2 {
namespace {

struct SweepPoint {
  double sigmas = 2.0;
  int violations = 3;
  double detection_minutes = -1.0;  // -1: never detected within the window
  int false_incidents = 0;
};

SweepPoint RunPoint(double sigmas, int violations, uint64_t seed) {
  SweepPoint point;
  point.sigmas = sigmas;
  point.violations = violations;

  // Scenario A: real antagonist; how fast is the first incident?
  {
    Cpi2Params params = FastTestParams();
    params.outlier_sigmas = sigmas;
    params.outlier_violations = violations;
    params.enforcement_enabled = false;
    VictimScenario scenario = MakeVictimScenario(6, WebSearchLeafSpec(), params, seed);
    scenario.harness->PrimeSpecs(12 * kMicrosPerMinute);
    InjectAntagonist(scenario, VideoProcessingSpec(), "video.x");
    const MicroTime injected = scenario.harness->now();
    const MicroTime deadline = injected + 20 * kMicrosPerMinute;
    while (scenario.harness->now() < deadline) {
      scenario.harness->cluster().Tick();
      if (scenario.harness->incidents().size() > 0) {
        point.detection_minutes =
            static_cast<double>(scenario.harness->now() - injected) / kMicrosPerMinute;
        break;
      }
    }
  }

  // Scenario B: quiet cluster; how many spurious incidents in 40 minutes?
  {
    Cpi2Params params = FastTestParams();
    params.outlier_sigmas = sigmas;
    params.outlier_violations = violations;
    params.enforcement_enabled = false;
    VictimScenario scenario = MakeVictimScenario(6, WebSearchLeafSpec(), params, seed + 1);
    scenario.harness->PrimeSpecs(12 * kMicrosPerMinute);
    scenario.harness->RunFor(40 * kMicrosPerMinute);
    point.false_incidents = static_cast<int>(scenario.harness->incidents().size());
  }
  return point;
}

void Run() {
  PrintHeader("Ablation: outlier thresholds",
              "2-sigma + 3 violations in 5 min, swept against the alternatives");
  PrintPaperClaim("Table 2 chose 2 sigma and 3-in-5-minutes; 'to reduce occasional false");
  PrintPaperClaim("alarms from noisy data'");

  PrintTableRow({"sigmas", "violations", "time to detect", "false incidents"}, 18);
  SweepPoint chosen;
  SweepPoint hair_trigger;
  SweepPoint sluggish;
  for (double sigmas : {1.0, 2.0, 3.0}) {
    for (int violations : {1, 3, 5}) {
      const SweepPoint point = RunPoint(sigmas, violations, 2026);
      PrintTableRow({StrFormat("%.0f", sigmas), StrFormat("%d", violations),
                     point.detection_minutes < 0.0
                         ? "never"
                         : StrFormat("%.1f min", point.detection_minutes),
                     StrFormat("%d", point.false_incidents)},
                    18);
      if (sigmas == 2.0 && violations == 3) {
        chosen = point;
      }
      if (sigmas == 1.0 && violations == 1) {
        hair_trigger = point;
      }
      if (sigmas == 3.0 && violations == 5) {
        sluggish = point;
      }
    }
  }
  PrintResult("chosen_detection_minutes", chosen.detection_minutes);
  PrintResult("chosen_false_incidents", chosen.false_incidents);
  PrintResult("hair_trigger_false_incidents", hair_trigger.false_incidents);

  const bool shape =
      chosen.detection_minutes >= 0.0 && chosen.detection_minutes <= 6.0 &&
      chosen.false_incidents == 0 && hair_trigger.false_incidents >= chosen.false_incidents &&
      (sluggish.detection_minutes < 0.0 ||
       sluggish.detection_minutes >= chosen.detection_minutes);
  PrintResult("shape_holds",
              shape ? "yes (paper's point detects within minutes with no false incidents; "
                      "hair-trigger settings are noisier, stricter ones slower)"
                    : "NO");
}

}  // namespace
}  // namespace cpi2

int main() {
  cpi2::Run();
  return cpi2::VerdictExitCode();
}
