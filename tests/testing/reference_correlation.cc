#include "tests/testing/reference_correlation.h"

#include <algorithm>

namespace cpi2 {

std::vector<AlignedPair> AlignSeries(const TimeSeries& a, const TimeSeries& b, MicroTime begin,
                                     MicroTime end, MicroTime tolerance) {
  std::vector<AlignedPair> out;
  for (const TimePoint& pa : View(a, begin, end)) {
    bool found = false;
    const double vb = b.NearestValue(pa.timestamp, tolerance, &found);
    if (found) {
      out.push_back({pa.timestamp, pa.value, vb});
    }
  }
  return out;
}

double AntagonistCorrelation(const std::vector<AlignedPair>& pairs, double cpi_threshold) {
  if (pairs.empty() || cpi_threshold <= 0.0) {
    return 0.0;
  }
  double usage_total = 0.0;
  for (const AlignedPair& pair : pairs) {
    usage_total += pair.b;
  }
  if (usage_total <= 0.0) {
    return 0.0;
  }
  double correlation = 0.0;
  for (const AlignedPair& pair : pairs) {
    const double cpi = pair.a;
    const double usage = pair.b / usage_total;  // sum of normalized usage is 1
    if (cpi > cpi_threshold) {
      correlation += usage * (1.0 - cpi_threshold / cpi);
    } else if (cpi < cpi_threshold && cpi > 0.0) {
      correlation += usage * (cpi / cpi_threshold - 1.0);
    }
  }
  return correlation;
}

double FusedAntagonistCorrelation(const TimeSeries& victim_cpi, const TimeSeries& usage,
                                  MicroTime begin, MicroTime end, MicroTime tolerance,
                                  double cpi_threshold, size_t* aligned_pairs) {
  *aligned_pairs = 0;
  const size_t a_begin = victim_cpi.LowerBound(begin);
  const size_t a_end = victim_cpi.LowerBound(end);
  if (a_begin >= a_end || usage.empty()) {
    return 0.0;
  }

  // Pass 1: count the aligned pairs and total their usage, in the order
  // AntagonistCorrelation accumulates its normalizer.
  size_t pairs = 0;
  double usage_total = 0.0;
  {
    NearestCursor cursor(usage);
    size_t j = 0;
    for (size_t i = a_begin; i < a_end; ++i) {
      if (cursor.Seek(victim_cpi[i].timestamp, tolerance, &j)) {
        usage_total += usage[j].value;
        ++pairs;
      }
    }
  }
  if (pairs == 0) {
    return 0.0;
  }
  *aligned_pairs = pairs;
  if (cpi_threshold <= 0.0 || usage_total <= 0.0) {
    return 0.0;
  }

  // Pass 2: the correlation sum, with AntagonistCorrelation's per-pair
  // expressions in the same order.
  double correlation = 0.0;
  NearestCursor cursor(usage);
  size_t j = 0;
  for (size_t i = a_begin; i < a_end; ++i) {
    const TimePoint& victim_point = victim_cpi[i];
    if (!cursor.Seek(victim_point.timestamp, tolerance, &j)) {
      continue;
    }
    const double cpi = victim_point.value;
    const double normalized = usage[j].value / usage_total;
    if (cpi > cpi_threshold) {
      correlation += normalized * (1.0 - cpi_threshold / cpi);
    } else if (cpi < cpi_threshold && cpi > 0.0) {
      correlation += normalized * (cpi / cpi_threshold - 1.0);
    }
  }
  return correlation;
}

std::vector<Suspect> ReferenceAnalyze(const Cpi2Params& params, const TimeSeries& victim_cpi,
                                      double cpi_threshold,
                                      const std::vector<SuspectInput>& suspects, MicroTime now,
                                      ReferenceKernel kernel) {
  const MicroTime begin = now - params.correlation_window;
  const MicroTime tolerance = params.sample_period / 2;

  std::vector<Suspect> scored;
  scored.reserve(suspects.size());
  for (const SuspectInput& input : suspects) {
    if (input.usage == nullptr) {
      continue;
    }
    double correlation = 0.0;
    if (kernel == ReferenceKernel::kAlignSeries) {
      const std::vector<AlignedPair> pairs =
          AlignSeries(victim_cpi, *input.usage, begin, now + 1, tolerance);
      if (pairs.empty()) {
        continue;
      }
      correlation = AntagonistCorrelation(pairs, cpi_threshold);
    } else {
      size_t aligned = 0;
      correlation = FusedAntagonistCorrelation(victim_cpi, *input.usage, begin, now + 1,
                                               tolerance, cpi_threshold, &aligned);
      if (aligned == 0) {
        continue;
      }
    }
    scored.push_back(
        {input.task, input.jobname, input.workload_class, input.priority, correlation});
  }
  std::sort(scored.begin(), scored.end(), [](const Suspect& a, const Suspect& b) {
    if (a.correlation != b.correlation) {
      return a.correlation > b.correlation;
    }
    return a.task < b.task;
  });
  return scored;
}

}  // namespace cpi2
