#include "core/params.h"

#include <gtest/gtest.h>

#include "core/types.h"

namespace cpi2 {
namespace {

TEST(ParamsTest, DefaultsMatchTable2) {
  const Cpi2Params params;
  EXPECT_EQ(params.sample_duration, 10 * kMicrosPerSecond);
  EXPECT_EQ(params.sample_period, kMicrosPerMinute);
  EXPECT_EQ(params.spec_update_interval, 24 * kMicrosPerHour);
  EXPECT_DOUBLE_EQ(params.min_cpu_usage, 0.25);
  EXPECT_DOUBLE_EQ(params.outlier_sigmas, 2.0);
  EXPECT_EQ(params.outlier_violations, 3);
  EXPECT_EQ(params.violation_window, 5 * kMicrosPerMinute);
  EXPECT_EQ(params.correlation_window, 10 * kMicrosPerMinute);
  EXPECT_DOUBLE_EQ(params.correlation_threshold, 0.35);
  EXPECT_DOUBLE_EQ(params.cap_best_effort, 0.01);
  EXPECT_DOUBLE_EQ(params.cap_other, 0.1);
  EXPECT_EQ(params.cap_duration, 5 * kMicrosPerMinute);
  EXPECT_DOUBLE_EQ(params.history_weight, 0.9);
  EXPECT_EQ(params.min_tasks_for_spec, 5);
  EXPECT_EQ(params.min_samples_per_task, 100);
}

TEST(ParamsTest, TableRendersAllRows) {
  const std::string table = Cpi2Params{}.ToTable();
  for (const char* needle :
       {"Sampling duration", "10 seconds", "every 1 minutes", "job x CPU type",
        "24 hours", "0.25 CPU-sec/sec", "2 sigma", "3 violations in 5 minutes", "0.35",
        "0.10 CPU-sec/sec", "0.01 CPU-sec/sec", "5 minutes", "Wire batch max samples",
        "flush every tick"}) {
    EXPECT_NE(table.find(needle), std::string::npos) << "missing: " << needle;
  }
  // One sample transport exists, so the table no longer names a choice.
  EXPECT_EQ(table.find("Sample transport"), std::string::npos);
}

TEST(TypesTest, EnumNames) {
  EXPECT_STREQ(WorkloadClassName(WorkloadClass::kLatencySensitive), "latency-sensitive");
  EXPECT_STREQ(WorkloadClassName(WorkloadClass::kBatch), "batch");
  EXPECT_STREQ(JobPriorityName(JobPriority::kProduction), "production");
  EXPECT_STREQ(JobPriorityName(JobPriority::kNonProduction), "non-production");
  EXPECT_STREQ(JobPriorityName(JobPriority::kBestEffort), "best-effort");
}

TEST(TypesTest, JobPlatformKeyOrdering) {
  const JobPlatformKey a{"a", "x"};
  const JobPlatformKey b{"a", "y"};
  const JobPlatformKey c{"b", "x"};
  EXPECT_TRUE(a < b);
  EXPECT_TRUE(b < c);
  EXPECT_TRUE(a == JobPlatformKey({"a", "x"}));
  EXPECT_FALSE(a == b);
}

}  // namespace
}  // namespace cpi2
