#include "core/aggregator.h"

#include <gtest/gtest.h>

#include "util/string_util.h"

namespace cpi2 {
namespace {

Cpi2Params SmallParams() {
  Cpi2Params params;
  params.min_tasks_for_spec = 2;
  params.min_samples_per_task = 2;
  params.spec_update_interval = kMicrosPerHour;
  return params;
}

void Feed(Aggregator& aggregator, int tasks, int samples, double cpi) {
  for (int t = 0; t < tasks; ++t) {
    for (int s = 0; s < samples; ++s) {
      CpiSample sample;
      sample.jobname = "job";
      sample.platforminfo = "xeon";
      sample.task = StrFormat("job.%d", t);
      sample.cpi = cpi;
      sample.cpu_usage = 0.5;
      aggregator.AddSample(sample);
    }
  }
}

TEST(AggregatorTest, BuildsOnInterval) {
  Aggregator aggregator(SmallParams());
  int pushed = 0;
  aggregator.SetSpecCallback([&pushed](const CpiSpec&) { ++pushed; });

  Feed(aggregator, 3, 5, 1.5);
  aggregator.Tick(0);  // arms the timer
  EXPECT_EQ(aggregator.builds_completed(), 0);
  aggregator.Tick(30 * kMicrosPerMinute);
  EXPECT_EQ(aggregator.builds_completed(), 0) << "interval not yet elapsed";
  aggregator.Tick(kMicrosPerHour);
  EXPECT_EQ(aggregator.builds_completed(), 1);
  EXPECT_EQ(pushed, 1);
  ASSERT_TRUE(aggregator.GetSpec("job", "xeon").has_value());
  EXPECT_NEAR(aggregator.GetSpec("job", "xeon")->cpi_mean, 1.5, 1e-9);
}

TEST(AggregatorTest, ForceBuildIgnoresInterval) {
  Aggregator aggregator(SmallParams());
  Feed(aggregator, 3, 5, 2.0);
  const auto specs = aggregator.ForceBuild(0);
  ASSERT_EQ(specs.size(), 1u);
  EXPECT_EQ(aggregator.builds_completed(), 1);
}

TEST(AggregatorTest, NoSpecWithoutEnoughData) {
  Aggregator aggregator(SmallParams());
  Feed(aggregator, 1, 100, 2.0);  // only one task
  EXPECT_TRUE(aggregator.ForceBuild(0).empty());
  EXPECT_FALSE(aggregator.GetSpec("job", "xeon").has_value());
}

// Serializes every spec a build pushes, in push order, with full precision —
// the comparison the sharding determinism contract is stated in.
std::string PushFingerprint(const std::vector<CpiSpec>& specs) {
  std::string out;
  for (const CpiSpec& spec : specs) {
    out += StrFormat("%s|%s|%lld|%.17g|%.17g|%.17g\n", spec.jobname.c_str(),
                     spec.platforminfo.c_str(), static_cast<long long>(spec.num_samples),
                     spec.cpu_usage_mean, spec.cpi_mean, spec.cpi_stddev);
  }
  return out;
}

TEST(AggregatorTest, ShardCountDoesNotChangeSpecsOrPushOrder) {
  // Many keys across several platforms so every shard count actually splits
  // the state, two build rounds so decayed history is in play.
  const auto run = [](int shards) {
    Cpi2Params params = SmallParams();
    params.spec_shards = shards;
    Aggregator aggregator(params);
    std::string pushed;
    for (int round = 0; round < 2; ++round) {
      for (int job = 0; job < 40; ++job) {
        for (int t = 0; t < 2; ++t) {
          for (int s = 0; s < 3; ++s) {
            CpiSample sample;
            sample.jobname = StrFormat("job.%d", job);
            sample.platforminfo = StrFormat("platform.%d", job % 3);
            sample.task = StrFormat("job.%d/%d", job, t);
            sample.cpi = 1.0 + 0.01 * job + 0.1 * s + round;
            sample.cpu_usage = 0.25 + 0.005 * job;
            aggregator.AddSample(sample);
          }
        }
      }
      pushed += PushFingerprint(aggregator.ForceBuild(round * kMicrosPerHour));
    }
    return pushed;
  };

  const std::string single = run(1);
  ASSERT_NE(single.find("job.0|"), std::string::npos);
  EXPECT_EQ(run(3), single);
  EXPECT_EQ(run(8), single);
  EXPECT_EQ(run(64), single) << "more shards than keys per platform";
}

TEST(AggregatorCheckpointTest, MalformedNumericFieldNamesOffendingLine) {
  Aggregator aggregator(SmallParams());
  Feed(aggregator, 3, 5, 1.5);
  (void)aggregator.ForceBuild(0);
  const auto before = aggregator.GetSpec("job", "xeon");
  ASSERT_TRUE(before.has_value());

  // Truncated exponent in an H field: atof would read 1.0 and carry on.
  const Status bad_double = aggregator.Restore(
      "cpi2-aggregator-ckpt-v2\nM\t0\t1\t30\nW\t0\nH\tjob\txeon\t1e\t1.5\t0\t0.5\n");
  EXPECT_FALSE(bad_double.ok());
  EXPECT_NE(bad_double.message().find("line 4"), std::string::npos) << bad_double.message();
  EXPECT_NE(bad_double.message().find("1e"), std::string::npos) << bad_double.message();

  // INT64_MAX + 1: strtoll would clamp silently without the errno check.
  const Status overflow = aggregator.Restore(
      "cpi2-aggregator-ckpt-v2\nM\t0\t9223372036854775808\t30\n");
  EXPECT_FALSE(overflow.ok());
  EXPECT_NE(overflow.message().find("line 2"), std::string::npos) << overflow.message();

  // Trailing junk after a valid number.
  const Status junk = aggregator.Restore(
      "cpi2-aggregator-ckpt-v2\nM\t0\t1\t30\nS\tjob\txeon\t30x\t0.5\t1.5\t0\n");
  EXPECT_FALSE(junk.ok());
  EXPECT_NE(junk.message().find("line 3"), std::string::npos) << junk.message();

  // Unknown record type.
  const Status unknown = aggregator.Restore("cpi2-aggregator-ckpt-v2\nM\t0\t1\t30\nQ\t1\n");
  EXPECT_FALSE(unknown.ok());
  EXPECT_NE(unknown.message().find("line 3"), std::string::npos) << unknown.message();

  // Every rejected restore left the aggregator exactly as it was.
  const auto after = aggregator.GetSpec("job", "xeon");
  ASSERT_TRUE(after.has_value());
  EXPECT_EQ(after->cpi_mean, before->cpi_mean);
  EXPECT_EQ(after->num_samples, before->num_samples);
}

TEST(AggregatorCheckpointTest, V1BlobStillLoads) {
  // A v1-era blob: v1 header, no W/D records, global H-then-S order.
  const std::string blob =
      "cpi2-aggregator-ckpt-v1\n"
      "M\t3600000000\t1\t30\n"
      "H\tjob\txeon\t30\t1.5\t0.25\t0.5\n"
      "S\tjob\txeon\t30\t0.5\t1.5\t0.09128709291752768\n";
  Aggregator aggregator(SmallParams());
  ASSERT_TRUE(aggregator.Restore(blob).ok());
  const auto spec = aggregator.GetSpec("job", "xeon");
  ASSERT_TRUE(spec.has_value());
  EXPECT_EQ(spec->num_samples, 30);
  EXPECT_EQ(spec->cpi_mean, 1.5);
  EXPECT_EQ(aggregator.builds_completed(), 1);

  // A fresh checkpoint of the restored state is binary v3 and round-trips.
  const std::string rewritten = aggregator.Checkpoint();
  EXPECT_EQ(rewritten.rfind("CPAGCKP3", 0), 0u);
  Aggregator again(SmallParams());
  ASSERT_TRUE(again.Restore(rewritten).ok());
  EXPECT_EQ(again.GetSpec("job", "xeon")->cpi_mean, 1.5);

  // The text rendering of the same state is a v2 blob, and restoring either
  // encoding yields a bit-identical aggregator. Rendering text must leave the
  // binary writer's per-shard cache alone.
  const std::string text_ckpt = aggregator.CheckpointText();
  EXPECT_EQ(text_ckpt.rfind("cpi2-aggregator-ckpt-v2\n", 0), 0u) << text_ckpt;
  EXPECT_EQ(aggregator.Checkpoint(), rewritten);
  Aggregator from_text(SmallParams());
  Aggregator from_binary(SmallParams());
  ASSERT_TRUE(from_text.Restore(text_ckpt).ok());
  ASSERT_TRUE(from_binary.Restore(rewritten).ok());
  EXPECT_EQ(from_text.Checkpoint(), from_binary.Checkpoint());
}

TEST(AggregatorTest, RepeatedBuildsAgeWeightHistory) {
  Aggregator aggregator(SmallParams());
  Feed(aggregator, 3, 10, 1.0);
  (void)aggregator.ForceBuild(0);
  Feed(aggregator, 3, 10, 3.0);
  (void)aggregator.ForceBuild(kMicrosPerHour);
  const auto spec = aggregator.GetSpec("job", "xeon");
  ASSERT_TRUE(spec.has_value());
  EXPECT_GT(spec->cpi_mean, 1.5);
  EXPECT_LT(spec->cpi_mean, 3.0);
}

}  // namespace
}  // namespace cpi2
