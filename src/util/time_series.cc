#include "util/time_series.h"

namespace cpi2 {

double TimeSeries::NearestValue(MicroTime timestamp, MicroTime tolerance, bool* found) const {
  *found = false;
  if (points_.empty()) {
    return 0.0;
  }
  // The nearest point is adjacent to the insertion position. `lo` is the
  // first point at or after `timestamp`; `lo - 1` the last one before it.
  const size_t lo = LowerBound(timestamp);
  const bool have_below = lo > 0;
  const bool have_above = lo < points_.size();
  const MicroTime below_distance =
      have_below ? timestamp - points_[lo - 1].timestamp : 0;
  const MicroTime above_distance =
      have_above ? points_[lo].timestamp - timestamp : 0;
  if (have_above && (!have_below || above_distance <= below_distance)) {
    if (above_distance > tolerance) {
      return 0.0;  // the closer side is already out of tolerance
    }
    // Duplicates of the winning timestamp: the historical front-to-back scan
    // kept updating on ties, so the last duplicate's value wins.
    const size_t last = LowerBound(points_[lo].timestamp + 1) - 1;
    *found = true;
    return points_[last].value;
  }
  if (have_below && below_distance <= tolerance) {
    // `lo - 1` is already the last duplicate of its timestamp.
    *found = true;
    return points_[lo - 1].value;
  }
  return 0.0;
}

}  // namespace cpi2
