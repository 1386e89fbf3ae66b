#include "core/params.h"

#include "util/string_util.h"

namespace cpi2 {
namespace {

std::string FormatDuration(MicroTime t) {
  if (t % kMicrosPerHour == 0 && t >= kMicrosPerHour) {
    return StrFormat("%lld hours", static_cast<long long>(t / kMicrosPerHour));
  }
  if (t % kMicrosPerMinute == 0 && t >= kMicrosPerMinute) {
    return StrFormat("%lld minutes", static_cast<long long>(t / kMicrosPerMinute));
  }
  return StrFormat("%lld seconds", static_cast<long long>(t / kMicrosPerSecond));
}

}  // namespace

std::string Cpi2Params::ToTable() const {
  std::string out;
  const auto row = [&out](const std::string& name, const std::string& value) {
    out += PadRight(name, 38) + value + "\n";
  };
  row("Parameter", "Value");
  row("Collection granularity", "task");
  row("Sampling duration", FormatDuration(sample_duration));
  row("Sampling frequency", "every " + FormatDuration(sample_period));
  row("Aggregation granularity", "job x CPU type");
  row("Predicted CPI recalculated",
      "every " + FormatDuration(spec_update_interval) + " (goal: 1 hour)");
  row("Required CPU usage", StrFormat(">= %.2f CPU-sec/sec", min_cpu_usage));
  row("Outlier threshold 1",
      StrFormat("%.0f sigma (sigma: standard deviation)", outlier_sigmas));
  row("Outlier threshold 2",
      StrFormat("%d violations in %s", outlier_violations,
                FormatDuration(violation_window).c_str()));
  row("Antagonist correlation threshold", StrFormat("%.2f", correlation_threshold));
  row("Hard-capping quota", StrFormat("%.2f CPU-sec/sec", cap_other));
  row("Hard-capping quota (best effort)", StrFormat("%.2f CPU-sec/sec", cap_best_effort));
  row("Hard-capping duration", FormatDuration(cap_duration));
  row("Wire batch max samples", StrFormat("%d", wire_batch_max_samples));
  row("Wire batch max age",
      wire_batch_max_age == 0 ? "flush every tick" : FormatDuration(wire_batch_max_age));
  return out;
}

}  // namespace cpi2
