#include "util/time_series.h"

#include <gtest/gtest.h>

#include "tests/testing/reference_correlation.h"

namespace cpi2 {
namespace {

constexpr MicroTime kMinute = kMicrosPerMinute;

TEST(TimeSeriesTest, AppendAndIndex) {
  TimeSeries series;
  EXPECT_TRUE(series.Append(10, 1.0));
  EXPECT_TRUE(series.Append(20, 2.0));
  ASSERT_EQ(series.size(), 2u);
  EXPECT_EQ(series[0].timestamp, 10);
  EXPECT_DOUBLE_EQ(series[1].value, 2.0);
  EXPECT_EQ(series.back().timestamp, 20);
}

TEST(TimeSeriesTest, DropsOutOfOrderPointsAndCountsThem) {
  TimeSeries series;
  series.Append(100, 1.0);
  EXPECT_FALSE(series.Append(50, 2.0));  // out of order: dropped
  EXPECT_EQ(series.size(), 1u);
  EXPECT_EQ(series.dropped_points(), 1);
  EXPECT_TRUE(series.Append(100, 3.0));  // equal timestamps are allowed
  EXPECT_EQ(series.size(), 2u);
  EXPECT_FALSE(series.Append(99, 4.0));
  EXPECT_EQ(series.dropped_points(), 2);
}

TEST(TimeSeriesTest, TrimBefore) {
  TimeSeries series;
  for (int i = 0; i < 10; ++i) {
    series.Append(i * kMinute, static_cast<double>(i));
  }
  series.TrimBefore(5 * kMinute);
  ASSERT_EQ(series.size(), 5u);
  EXPECT_EQ(series[0].timestamp, 5 * kMinute);
}

TEST(TimeSeriesTest, SurvivesRingGrowthAndWraparound) {
  // Append/trim interleaving drives the ring's head around the backing
  // store and across several capacity doublings.
  TimeSeries series;
  MicroTime t = 0;
  for (int round = 0; round < 50; ++round) {
    for (int i = 0; i < 7; ++i) {
      t += kMinute;
      series.Append(t, static_cast<double>(t));
    }
    series.TrimBefore(t - 3 * kMinute);
  }
  ASSERT_EQ(series.size(), 4u);
  for (size_t i = 0; i < series.size(); ++i) {
    EXPECT_DOUBLE_EQ(series[i].value, static_cast<double>(series[i].timestamp));
    if (i > 0) {
      EXPECT_EQ(series[i].timestamp - series[i - 1].timestamp, kMinute);
    }
  }
  EXPECT_EQ(series.back().timestamp, t);
}

TEST(TimeSeriesTest, LowerBoundFindsFirstAtOrAfter) {
  TimeSeries series;
  series.Append(10, 1.0);
  series.Append(20, 2.0);
  series.Append(20, 3.0);  // duplicate timestamp
  series.Append(30, 4.0);
  EXPECT_EQ(series.LowerBound(0), 0u);
  EXPECT_EQ(series.LowerBound(10), 0u);
  EXPECT_EQ(series.LowerBound(11), 1u);
  EXPECT_EQ(series.LowerBound(20), 1u);  // first duplicate
  EXPECT_EQ(series.LowerBound(21), 3u);
  EXPECT_EQ(series.LowerBound(30), 3u);
  EXPECT_EQ(series.LowerBound(31), 4u);
}

TEST(TimeSeriesTest, ViewIsHalfOpenAndAllocationFree) {
  TimeSeries series;
  for (int i = 0; i < 10; ++i) {
    series.Append(i * kMinute, static_cast<double>(i));
  }
  const WindowView window = View(series, 2 * kMinute, 5 * kMinute);
  ASSERT_EQ(window.size(), 3u);
  EXPECT_EQ(window.front().timestamp, 2 * kMinute);
  EXPECT_EQ(window.back().timestamp, 4 * kMinute);
  double sum = 0.0;
  for (const TimePoint& p : window) {
    sum += p.value;
  }
  EXPECT_DOUBLE_EQ(sum, 2.0 + 3.0 + 4.0);
  EXPECT_TRUE(View(series, 20 * kMinute, 30 * kMinute).empty());
  // An inverted range collapses to empty instead of wrapping.
  EXPECT_TRUE(View(series, 5 * kMinute, 2 * kMinute).empty());
}

TEST(TimeSeriesTest, NearestValueWithinTolerance) {
  TimeSeries series;
  series.Append(0, 1.0);
  series.Append(60 * kMicrosPerSecond, 2.0);
  bool found = false;
  const double v = series.NearestValue(55 * kMicrosPerSecond, 10 * kMicrosPerSecond, &found);
  EXPECT_TRUE(found);
  EXPECT_DOUBLE_EQ(v, 2.0);
}

TEST(TimeSeriesTest, NearestValueOutsideTolerance) {
  TimeSeries series;
  series.Append(0, 1.0);
  bool found = true;
  series.NearestValue(kMinute, kMicrosPerSecond, &found);
  EXPECT_FALSE(found);
}

TEST(TimeSeriesTest, NearestValueBreaksTiesTowardLaterPoints) {
  // Equidistant straddle: the historical front-to-back scan kept updating on
  // `distance <= best`, so the later point won. The indexed lookup must
  // agree.
  TimeSeries series;
  series.Append(0, 1.0);
  series.Append(20, 2.0);
  bool found = false;
  EXPECT_DOUBLE_EQ(series.NearestValue(10, 100, &found), 2.0);
  EXPECT_TRUE(found);
}

TEST(TimeSeriesTest, NearestValuePrefersLastDuplicate) {
  TimeSeries series;
  series.Append(10, 1.0);
  series.Append(10, 2.0);
  series.Append(10, 3.0);
  series.Append(50, 9.0);
  bool found = false;
  EXPECT_DOUBLE_EQ(series.NearestValue(10, 5, &found), 3.0);
  EXPECT_TRUE(found);
  // Approaching from below also lands on the last duplicate.
  found = false;
  EXPECT_DOUBLE_EQ(series.NearestValue(12, 5, &found), 3.0);
  EXPECT_TRUE(found);
}

TEST(TimeSeriesTest, NearestValueAtToleranceBoundaryIsFound) {
  TimeSeries series;
  series.Append(100, 7.0);
  bool found = false;
  EXPECT_DOUBLE_EQ(series.NearestValue(90, 10, &found), 7.0);
  EXPECT_TRUE(found);
  found = true;
  series.NearestValue(89, 10, &found);
  EXPECT_FALSE(found);
}

TEST(NearestCursorTest, MatchesNearestValueOnMonotoneQueries) {
  TimeSeries series;
  series.Append(0, 1.0);
  series.Append(kMinute, 2.0);
  series.Append(kMinute, 3.0);  // duplicate: later wins ties
  series.Append(3 * kMinute, 4.0);
  NearestCursor cursor(series);
  MicroTime queries[] = {0, 10, kMinute / 2, kMinute, 2 * kMinute, 3 * kMinute, 4 * kMinute};
  for (const MicroTime q : queries) {
    bool found = false;
    const double expected = series.NearestValue(q, kMinute, &found);
    size_t index = 0;
    const bool cursor_found = cursor.Seek(q, kMinute, &index);
    EXPECT_EQ(cursor_found, found) << "query " << q;
    if (found) {
      EXPECT_DOUBLE_EQ(series[index].value, expected) << "query " << q;
    }
  }
}

// CachedNearestCursor memoizes ring reads but must make every decision
// SeekNearestAdvance makes: same index, same hit/miss, for every query.
// Random series with gaps, duplicates and jitter; random warm starts.
TEST(CachedNearestCursorTest, DecisionEquivalentToSeekNearestAdvance) {
  uint64_t state = 20260809;
  auto next_u32 = [&state]() {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    return static_cast<uint32_t>(state >> 33);
  };
  for (int trial = 0; trial < 200; ++trial) {
    TimeSeries series;
    MicroTime t = next_u32() % kMinute;
    const size_t points = 1 + next_u32() % 40;
    for (size_t i = 0; i < points; ++i) {
      series.Append(t, static_cast<double>(i));
      // Gaps, exact duplicates (latest-wins ties), and sub-sample jitter.
      const uint32_t roll = next_u32() % 10;
      if (roll == 0) {
        t += 0;  // duplicate timestamp
      } else if (roll < 3) {
        t += next_u32() % (kMinute / 7);
      } else {
        t += kMinute / 2 + next_u32() % (3 * kMinute);
      }
    }
    const size_t start = next_u32() % series.size();
    size_t plain = start;
    CachedNearestCursor cached(series, start);
    MicroTime query = series[start].timestamp - kMinute + next_u32() % kMinute;
    for (int q = 0; q < 30; ++q) {
      const MicroTime tolerance = next_u32() % (2 * kMinute);
      const bool plain_hit = SeekNearestAdvance(series, query, tolerance, &plain);
      const bool cached_hit = cached.Seek(query, tolerance);
      ASSERT_EQ(cached_hit, plain_hit) << "trial " << trial << " query " << query;
      ASSERT_EQ(cached.index(), plain) << "trial " << trial << " query " << query;
      query += next_u32() % (2 * kMinute);  // non-decreasing
    }
  }
}

TEST(AlignSeriesTest, PairsMatchingTimestamps) {
  TimeSeries a;
  TimeSeries b;
  for (int i = 0; i < 10; ++i) {
    a.Append(i * kMinute, static_cast<double>(i));
    b.Append(i * kMinute + 5 * kMicrosPerSecond, static_cast<double>(10 * i));
  }
  const auto pairs = AlignSeries(a, b, 0, 10 * kMinute, 30 * kMicrosPerSecond);
  ASSERT_EQ(pairs.size(), 10u);
  for (size_t i = 0; i < pairs.size(); ++i) {
    EXPECT_DOUBLE_EQ(pairs[i].a, static_cast<double>(i));
    EXPECT_DOUBLE_EQ(pairs[i].b, static_cast<double>(10 * i));
  }
}

TEST(AlignSeriesTest, SkipsUnmatchedPoints) {
  TimeSeries a;
  TimeSeries b;
  a.Append(0, 1.0);
  a.Append(kMinute, 2.0);   // b has nothing near this
  a.Append(2 * kMinute, 3.0);
  b.Append(0, 5.0);
  b.Append(2 * kMinute, 6.0);
  const auto pairs = AlignSeries(a, b, 0, 3 * kMinute, 10 * kMicrosPerSecond);
  ASSERT_EQ(pairs.size(), 2u);
  EXPECT_DOUBLE_EQ(pairs[0].b, 5.0);
  EXPECT_DOUBLE_EQ(pairs[1].b, 6.0);
}

TEST(AlignSeriesTest, EmptyWindowYieldsNothing) {
  TimeSeries a;
  TimeSeries b;
  a.Append(kMinute, 1.0);
  b.Append(kMinute, 1.0);
  EXPECT_TRUE(AlignSeries(a, b, 2 * kMinute, 3 * kMinute, kMinute).empty());
}

}  // namespace
}  // namespace cpi2
