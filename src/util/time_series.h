// Timestamped value series with indexed window extraction and alignment.
//
// The antagonist-correlation analysis (section 4.2 of the paper) needs the
// victim's CPI samples and each suspect's CPU-usage samples over the same
// 10-minute window, aligned by timestamp. TimeSeries provides the storage
// and the alignment primitives.
//
// Storage is a growable power-of-two ring (util/ring_buffer.h): append and
// trim are allocation-free in the steady state, and the timestamps stay
// sorted, so every lookup is a binary search instead of a front-to-back
// scan. Window extraction is an index pair (WindowView) over the ring — no
// copy — and NearestValue is O(log n). The batched correlation kernel
// (core/correlation.h) aligns series with CachedNearestCursor below.

#ifndef CPI2_UTIL_TIME_SERIES_H_
#define CPI2_UTIL_TIME_SERIES_H_

#include <cstddef>
#include <cstdint>

#include "util/clock.h"
#include "util/ring_buffer.h"

namespace cpi2 {

struct TimePoint {
  MicroTime timestamp = 0;
  double value = 0.0;
};

// An append-only series of (timestamp, value) points ordered by timestamp.
// Old points can be trimmed to bound memory.
class TimeSeries {
 public:
  TimeSeries() = default;

  // Appends a point. Timestamps must be non-decreasing; out-of-order points
  // are dropped (network reordering is the caller's problem, and the paper's
  // one-sample-a-minute cadence makes this a non-issue in practice). Returns
  // false when the point was dropped; drops are also counted so the fault
  // plane's reordering is observable (see dropped_points).
  bool Append(MicroTime timestamp, double value) {
    if (!points_.empty() && timestamp < points_.back().timestamp) {
      ++dropped_;
      return false;
    }
    points_.PushBack({timestamp, value});
    return true;
  }

  size_t size() const { return points_.size(); }
  bool empty() const { return points_.empty(); }
  const TimePoint& operator[](size_t i) const { return points_[i]; }
  const TimePoint& front() const { return points_.front(); }
  const TimePoint& back() const { return points_.back(); }

  // Points dropped by Append because they arrived out of order.
  int64_t dropped_points() const { return dropped_; }

  // Index of the first point with timestamp >= `timestamp` (== size() when
  // every point is older). O(log n).
  size_t LowerBound(MicroTime timestamp) const {
    size_t lo = 0;
    size_t hi = points_.size();
    while (lo < hi) {
      const size_t mid = lo + (hi - lo) / 2;
      if (points_[mid].timestamp < timestamp) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    return lo;
  }

  // Removes all points with timestamp < `cutoff`. O(log n).
  void TrimBefore(MicroTime cutoff) { points_.PopFrontN(LowerBound(cutoff)); }

  // Returns the value at the point nearest to `timestamp` within
  // `tolerance`, or nullopt-like behaviour via `found`. Among equidistant
  // candidates the latest point wins (matching the historical front-to-back
  // scan, which CachedNearestCursor must reproduce exactly). O(log n).
  double NearestValue(MicroTime timestamp, MicroTime tolerance, bool* found) const;

 private:
  GrowableRing<TimePoint> points_;
  int64_t dropped_ = 0;
};

// An allocation-free view of the points with begin <= timestamp < end:
// an (index, index) pair over the series' ring. Valid until the series is
// appended to or trimmed.
class WindowView {
 public:
  WindowView() = default;
  WindowView(const TimeSeries* series, size_t begin, size_t end)
      : series_(series), begin_(begin), end_(end) {}

  size_t size() const { return end_ - begin_; }
  bool empty() const { return begin_ == end_; }
  const TimePoint& operator[](size_t i) const { return (*series_)[begin_ + i]; }
  const TimePoint& front() const { return (*this)[0]; }
  const TimePoint& back() const { return (*this)[size() - 1]; }

  class Iterator {
   public:
    Iterator(const TimeSeries* series, size_t index) : series_(series), index_(index) {}
    const TimePoint& operator*() const { return (*series_)[index_]; }
    const TimePoint* operator->() const { return &(*series_)[index_]; }
    Iterator& operator++() {
      ++index_;
      return *this;
    }
    bool operator==(const Iterator& other) const { return index_ == other.index_; }
    bool operator!=(const Iterator& other) const { return index_ != other.index_; }

   private:
    const TimeSeries* series_;
    size_t index_;
  };
  Iterator begin() const { return Iterator(series_, begin_); }
  Iterator end() const { return Iterator(series_, end_); }

 private:
  const TimeSeries* series_ = nullptr;
  size_t begin_ = 0;
  size_t end_ = 0;
};

// The [begin, end) window of `series` as an index pair; O(log n), no copy.
inline WindowView View(const TimeSeries& series, MicroTime begin, MicroTime end) {
  const size_t lo = series.LowerBound(begin);
  const size_t hi = series.LowerBound(end);
  return WindowView(&series, lo, hi < lo ? lo : hi);
}

inline MicroTime TimestampDistance(MicroTime a, MicroTime b) {
  return a < b ? b - a : a - b;
}

// Monotone nearest-match cursor for tight alignment sweeps: for
// non-decreasing query timestamps it advances greedily to the point the
// front-to-back NearestValue scan would pick (minimum distance, latest point
// wins ties), amortized O(1) per query. It carries the timestamps of
// series[next] and series[next + 1] across queries, so a query that advances
// the cursor by one step costs a single ring read (the new look-ahead).
// time_series_test pins it decision-for-decision to the test-side reference
// advance (tests/testing/reference_correlation.h SeekNearestAdvance), and the
// correlation equivalence suite pins the batched kernel built on it to the
// per-suspect reference paths.
// `series` must be non-empty and outlive the cursor; `start` < size();
// query timestamps must be non-decreasing.
class CachedNearestCursor {
 public:
  CachedNearestCursor(const TimeSeries& series, size_t start)
      : series_(&series),
        next_(start),
        size_(series.size()),
        ts_next_(series[start].timestamp),
        ts_ahead_(start + 1 < series.size() ? series[start + 1].timestamp : 0) {}

  // Advances to the nearest point to `timestamp` (minimum distance, latest
  // point wins ties) and returns true when it lies within `tolerance`. The
  // chosen index is index().
  bool Seek(MicroTime timestamp, MicroTime tolerance) {
    MicroTime current = TimestampDistance(ts_next_, timestamp);
    while (next_ + 1 < size_) {
      const MicroTime candidate = TimestampDistance(ts_ahead_, timestamp);
      if (candidate > current) {
        break;
      }
      current = candidate;
      ++next_;
      ts_next_ = ts_ahead_;
      if (next_ + 1 < size_) {
        ts_ahead_ = (*series_)[next_ + 1].timestamp;
      }
    }
    return current <= tolerance;
  }

  size_t index() const { return next_; }

 private:
  const TimeSeries* series_;
  size_t next_;
  size_t size_;
  MicroTime ts_next_;   // (*series_)[next_].timestamp
  MicroTime ts_ahead_;  // (*series_)[next_ + 1].timestamp when it exists
};

}  // namespace cpi2

#endif  // CPI2_UTIL_TIME_SERIES_H_
