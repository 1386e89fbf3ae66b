// Golden-file compatibility: byte-frozen copies of every legacy on-disk
// format this codebase has ever written. These fixtures are never
// regenerated by the code under test — they are the archives sitting in
// real deployments, and they must load forever, whatever the current
// default encodings are.

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <cstdio>
#include <fstream>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/aggregator.h"
#include "core/cell_aggregator.h"
#include "core/incident_log_io.h"
#include "core/params.h"
#include "net/frame.h"
#include "util/string_util.h"
#include "wire/framing.h"
#include "wire/wire_codec.h"
#include "wire/sketch_codec.h"

namespace cpi2 {
namespace {

class GoldenCompatTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("cpi2_golden_" + std::to_string(getpid()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string WriteFixture(const std::string& name, const std::string& contents) {
    const std::string path = (dir_ / name).string();
    std::ofstream(path, std::ios::binary) << contents;
    return path;
  }

  std::filesystem::path dir_;
};

// An incident archive exactly as the v1 TSV writer produced it: header,
// 15 tab-separated columns, ';'-joined suspects, %.9g doubles.
constexpr char kV1IncidentFixture[] =
    "cpi2-incidents-v1\n"
    "60000000\tm0042\twebsearch.7\twebsearch\txeon-2.6GHz\t0\t5\t2.12\t1.8\t0.16"
    "\t1\tvideo.0\t0.01\tcorrelation 0.46 >= 0.35"
    "\tvideo.0,video,1,2,0.46;bigtable.3,bigtable,0,0,0.39\n"
    "120000000\tm0043\tbigtable.3\tbigtable\txeon-2.6GHz\t1\t3.1\t2.5\t2\t0.2"
    "\t0\t\t0\tobserved only\t\n";

TEST_F(GoldenCompatTest, V1IncidentArchiveLoadsForever) {
  const std::string path = WriteFixture("incidents_v1.tsv", kV1IncidentFixture);
  int64_t skipped = -1;
  const auto loaded = LoadIncidents(path, &skipped);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(skipped, 0);
  ASSERT_EQ(loaded->size(), 2u);
  const Incident& first = loaded->incidents()[0];
  EXPECT_EQ(first.timestamp, 60000000);
  EXPECT_EQ(first.machine, "m0042");
  EXPECT_EQ(first.victim_job, "websearch");
  EXPECT_EQ(first.victim_class, WorkloadClass::kLatencySensitive);
  EXPECT_DOUBLE_EQ(first.victim_cpi, 5.0);
  EXPECT_EQ(first.action, IncidentAction::kHardCap);
  EXPECT_EQ(first.action_target, "video.0");
  ASSERT_EQ(first.suspects.size(), 2u);
  EXPECT_EQ(first.suspects[0].task, "video.0");
  EXPECT_DOUBLE_EQ(first.suspects[1].correlation, 0.39);
  const Incident& second = loaded->incidents()[1];
  EXPECT_EQ(second.action, IncidentAction::kNone);
  EXPECT_TRUE(second.suspects.empty());
}

// A v1-era aggregator checkpoint: v1 header, no W/D records, H then S.
constexpr char kV1CheckpointFixture[] =
    "cpi2-aggregator-ckpt-v1\n"
    "M\t3600000000\t1\t30\n"
    "H\tjob\txeon\t30\t1.5\t0.25\t0.5\n"
    "S\tjob\txeon\t30\t0.5\t1.5\t0.09128709291752768\n";

// A v2-era checkpoint: v2 header, dedup watermark + window entries.
constexpr char kV2CheckpointFixture[] =
    "cpi2-aggregator-ckpt-v2\n"
    "M\t3600000000\t2\t45\n"
    "W\t3599000000\n"
    "D\t3598000000\tm0042\twebsearch.7\n"
    "D\t3599000000\tm0043\tbigtable.3\n"
    "H\tjob\txeon\t30\t1.5\t0.25\t0.5\n"
    "S\tjob\txeon\t30\t0.5\t1.5\t0.09128709291752768\n";

Cpi2Params CheckpointParams() {
  Cpi2Params params;
  params.sample_dedup_window = kMicrosPerMinute;
  return params;
}

TEST_F(GoldenCompatTest, V1CheckpointLoadsForever) {
  const std::string path = WriteFixture("ckpt_v1.tsv", kV1CheckpointFixture);
  Aggregator aggregator(CheckpointParams());
  ASSERT_TRUE(aggregator.LoadCheckpoint(path).ok());
  EXPECT_EQ(aggregator.builds_completed(), 1);
  const auto spec = aggregator.GetSpec("job", "xeon");
  ASSERT_TRUE(spec.has_value());
  EXPECT_EQ(spec->num_samples, 30);
  EXPECT_DOUBLE_EQ(spec->cpi_mean, 1.5);
}

TEST_F(GoldenCompatTest, V2CheckpointLoadsForever) {
  const std::string path = WriteFixture("ckpt_v2.tsv", kV2CheckpointFixture);
  Aggregator aggregator(CheckpointParams());
  ASSERT_TRUE(aggregator.LoadCheckpoint(path).ok());
  EXPECT_EQ(aggregator.builds_completed(), 2);
  ASSERT_TRUE(aggregator.GetSpec("job", "xeon").has_value());
  // The restored dedup window still absorbs a replay of a checkpointed
  // sample.
  CpiSample replay;
  replay.jobname = "websearch";
  replay.platforminfo = "xeon";
  replay.timestamp = 3598000000;
  replay.machine = "m0042";
  replay.task = "websearch.7";
  replay.cpi = 1.0;
  aggregator.AddSample(replay);
  EXPECT_EQ(aggregator.duplicates_dropped(), 1);
}

TEST_F(GoldenCompatTest, LegacyRestoreRewritesToCurrentDefaultEncoding) {
  // Migration path: restore a v1 text checkpoint, checkpoint again — the
  // rewrite is the current CPI2HAG2 and itself round-trips.
  const std::string path = WriteFixture("ckpt_v1.tsv", kV1CheckpointFixture);
  Aggregator aggregator(CheckpointParams());
  ASSERT_TRUE(aggregator.LoadCheckpoint(path).ok());
  const std::string rewritten_path = (dir_ / "ckpt_v3.bin").string();
  ASSERT_TRUE(aggregator.SaveCheckpoint(rewritten_path).ok());
  std::ifstream in(rewritten_path, std::ios::binary);
  std::string magic(8, '\0');
  in.read(magic.data(), 8);
  EXPECT_EQ(magic, "CPI2HAG2");
  Aggregator again(CheckpointParams());
  ASSERT_TRUE(again.LoadCheckpoint(rewritten_path).ok());
  EXPECT_EQ(again.Checkpoint(), aggregator.Checkpoint());
}

// ---------------------------------------------------------------------------
// Binary aggregator checkpoints, byte-frozen. Both aggregators write
// CPI2HAG2; CPAGCKP3 (the flat Aggregator's old format) and CPI2HAG1 (the
// HierarchicalAggregator's) are read-only now, and their fixtures were
// written by the code that last wrote them. All four come from the same
// small deterministic state: two builds over three jobs, so the blobs hold a
// dedup window, age-weighted history, specs and (except CPAGCKP3) per-spec
// versions.

Cpi2Params GoldenAggregationParams() {
  Cpi2Params params;
  params.sample_dedup_window = kMicrosPerMinute;
  params.min_tasks_for_spec = 2;
  params.min_samples_per_task = 1;
  params.spec_shards = 5;
  params.aggregation_cells = 2;
  return params;
}

// The golden sample stream; `add(cell, sample)` feeds either aggregator and
// `build(now)` closes a window. Build 1 makes websearch and bigtable
// eligible; build 2 rebuilds websearch only and gives video (one task)
// history but no spec. The trailing samples, one of them a replay, leave
// entries in the dedup window and in the (uncheckpointed) open window.
template <typename Add, typename Build>
void FeedGoldenStream(Add add, Build build) {
  const auto sample = [](const char* job, int task, MicroTime t, double cpi) {
    CpiSample s;
    s.jobname = job;
    s.platforminfo = "xeon";
    s.task = StrFormat("%s.%d", job, task);
    s.machine = StrFormat("m%d", task);
    s.timestamp = t;
    s.cpi = cpi;
    s.cpu_usage = 0.25 + 0.125 * task;
    return s;
  };
  for (int task = 0; task < 2; ++task) {
    add(task, sample("websearch", task, (1 + task) * kMicrosPerMinute, 1.5 + 0.25 * task));
    add(task, sample("websearch", task, (3 + task) * kMicrosPerMinute, 1.75));
    add(task, sample("bigtable", task, (2 + task) * kMicrosPerMinute, 2.5 - 0.5 * task));
  }
  build(10 * kMicrosPerMinute);
  for (int task = 0; task < 2; ++task) {
    add(task, sample("websearch", task, (11 + task) * kMicrosPerMinute, 1.25 + 0.5 * task));
  }
  add(1, sample("video", 1, 12 * kMicrosPerMinute, 3.0));
  build(20 * kMicrosPerMinute);
  add(0, sample("websearch", 0, 21 * kMicrosPerMinute, 1.5));
  add(1, sample("bigtable", 1, 21 * kMicrosPerMinute + kMicrosPerSecond, 2.0));
  add(1, sample("bigtable", 1, 21 * kMicrosPerMinute + kMicrosPerSecond, 2.0));  // replay
}

Aggregator GoldenFlatAggregator() {
  Aggregator aggregator(GoldenAggregationParams());
  FeedGoldenStream([&](size_t, const CpiSample& s) { aggregator.AddSample(s); },
                   [&](MicroTime now) { (void)aggregator.ForceBuild(now); });
  return aggregator;
}

std::unique_ptr<HierarchicalAggregator> GoldenTieredAggregator() {
  auto aggregator = std::make_unique<HierarchicalAggregator>(GoldenAggregationParams());
  FeedGoldenStream([&](size_t cell, const CpiSample& s) { aggregator->AddSample(cell, s); },
                   [&](MicroTime now) { (void)aggregator->ForceBuild(now); });
  return aggregator;
}

// Written by GoldenFlatAggregator().Checkpoint() when the flat aggregator
// wrote CPAGCKP3: M, W, one D record, then one shard's H+S, another's H
// only, a third's H+S (spec_shards = 5).
constexpr char kFlatCheckpointHex[] =
    "43504147434b5033084d80b0b4f808020bfc8b0448065780d5cab209dd073233"
    "2c4404026d300b7765627365617263682e30026d310a6269677461626c652e31"
    "02000180ccd0b109020380897a9318b600314801097765627365617263680478"
    "656f6e6666666666661640dbb66ddbb6edf93ff88aaff88a2fcb3f0000000000"
    "00d43ff99773832a5301097765627365617263680478656f6e05000000000000"
    "d43fdbb66ddbb6edf93fc46d21910881cb3ff840d47c2d480105766964656f04"
    "78656f6e000000000000f03f0000000000000840000000000000000000000000"
    "0000d83fc915dc2e304801086269677461626c650478656f6ecdccccccccccfc"
    "3f0000000000000240cdccccccccccbc3f000000000000d43ff54cb45d295301"
    "086269677461626c650478656f6e02000000000000d43f0000000000000240cd"
    "3b7f669ea0d63f9147551a";
// Written by GoldenTieredAggregator()->Checkpoint() when the tiered
// aggregator wrote CPI2HAG1: the same records as one H and one S record,
// each spec trailed by its build version (bigtable 1, websearch 2).
constexpr char kTieredCheckpointHex[] =
    "4350493248414731084d80b0b4f808020bfc8b0448065780d5cab209dd073233"
    "2c4404026d300b7765627365617263682e30026d310a6269677461626c652e31"
    "02000180ccd0b109020380897a9318b6008a014803086269677461626c650478"
    "656f6ecdccccccccccfc3f0000000000000240cdccccccccccbc3f0000000000"
    "00d43f05766964656f0478656f6e000000000000f03f00000000000008400000"
    "000000000000000000000000d83f097765627365617263680478656f6e666666"
    "6666661640dbb66ddbb6edf93ff88aaff88a2fcb3f000000000000d43fc10e61"
    "dc535302086269677461626c650478656f6e02000000000000d43f0000000000"
    "000240cd3b7f669ea0d63f01097765627365617263680478656f6e0500000000"
    "0000d43fdbb66ddbb6edf93fc46d21910881cb3f020d822782";
// Written by GoldenFlatAggregator().Checkpoint() in CPI2HAG2: the CPAGCKP3
// records above with each spec trailed by its build version, then the end
// record counting the 7 records before it.
constexpr char kFlatHag2Hex[] =
    "4350493248414732084d80b0b4f808020bfc8b0448065780d5cab209dd073233"
    "2c4404026d300b7765627365617263682e30026d310a6269677461626c652e31"
    "02000180ccd0b109020380897a9318b600314801097765627365617263680478"
    "656f6e6666666666661640dbb66ddbb6edf93ff88aaff88a2fcb3f0000000000"
    "00d43ff99773832b5301097765627365617263680478656f6e05000000000000"
    "d43fdbb66ddbb6edf93fc46d21910881cb3f02cf20168f2d480105766964656f"
    "0478656f6e000000000000f03f00000000000008400000000000000000000000"
    "000000d83fc915dc2e304801086269677461626c650478656f6ecdcccccccccc"
    "fc3f0000000000000240cdccccccccccbc3f000000000000d43ff54cb45d2a53"
    "01086269677461626c650478656f6e02000000000000d43f0000000000000240"
    "cd3b7f669ea0d63f018e2917220245088d210cc2";
// Written by GoldenTieredAggregator()->Checkpoint() in CPI2HAG2: the
// CPI2HAG1 records above, then the end record counting the 5 before it.
constexpr char kTieredHag2Hex[] =
    "4350493248414732084d80b0b4f808020bfc8b0448065780d5cab209dd073233"
    "2c4404026d300b7765627365617263682e30026d310a6269677461626c652e31"
    "02000180ccd0b109020380897a9318b6008a014803086269677461626c650478"
    "656f6ecdccccccccccfc3f0000000000000240cdccccccccccbc3f0000000000"
    "00d43f05766964656f0478656f6e000000000000f03f00000000000008400000"
    "000000000000000000000000d83f097765627365617263680478656f6e666666"
    "6666661640dbb66ddbb6edf93ff88aaff88a2fcb3f000000000000d43fc10e61"
    "dc535302086269677461626c650478656f6e02000000000000d43f0000000000"
    "000240cd3b7f669ea0d63f01097765627365617263680478656f6e0500000000"
    "0000d43fdbb66ddbb6edf93fc46d21910881cb3f020d822782024505305dbdbc";

std::string FromHex(std::string_view hex) {
  std::string bytes;
  for (size_t i = 0; i + 1 < hex.size(); i += 2) {
    bytes.push_back(static_cast<char>(std::stoi(std::string(hex.substr(i, 2)), nullptr, 16)));
  }
  return bytes;
}

// The globally name-sorted spec state, every double bit-exact (%a), with
// spec versions unless `versions` is false. Shard placement follows
// interner ids, which a restore assigns afresh, so the restored flat
// builder is compared by content, not by record order.
std::string DescribeSpecState(const SpecBuilder& builder, bool versions = true) {
  std::string out;
  for (const SpecBuilder::HistoryEntry& entry : builder.SnapshotHistory()) {
    out += StrFormat("H %s %s %a %a %a %a\n", entry.key.jobname.c_str(),
                     entry.key.platforminfo.c_str(), entry.count, entry.mean, entry.m2,
                     entry.usage_mean);
  }
  for (const VersionedSpec& versioned : builder.SnapshotLatestSpecs()) {
    const CpiSpec& spec = versioned.spec;
    out += StrFormat("S %s %s %lld %a %a %a", spec.jobname.c_str(), spec.platforminfo.c_str(),
                     static_cast<long long>(spec.num_samples), spec.cpu_usage_mean,
                     spec.cpi_mean, spec.cpi_stddev);
    out += versions ? StrFormat(" v%llu\n", static_cast<unsigned long long>(versioned.version))
                    : "\n";
  }
  return out;
}

// The golden stream's last sample, which the checkpointed dedup window holds.
CpiSample GoldenReplay() {
  CpiSample replay;
  replay.jobname = "bigtable";
  replay.platforminfo = "xeon";
  replay.task = "bigtable.1";
  replay.machine = "m1";
  replay.timestamp = 21 * kMicrosPerMinute + kMicrosPerSecond;
  replay.cpi = 2.0;
  return replay;
}

TEST_F(GoldenCompatTest, TodaysFlatAggregatorStillWritesGoldenCheckpoint) {
  const Aggregator aggregator = GoldenFlatAggregator();
  EXPECT_EQ(aggregator.duplicates_dropped(), 1);
  EXPECT_EQ(aggregator.Checkpoint(), FromHex(kFlatHag2Hex));
}

TEST_F(GoldenCompatTest, GoldenFlatCheckpointRestoresExactly) {
  // The read-only CPAGCKP3 fixture: the same state, except that its specs
  // carry no version and so restore at the checkpoint's build count, 2.
  const std::string golden = FromHex(kFlatCheckpointHex);
  Aggregator live = GoldenFlatAggregator();
  Aggregator restored(GoldenAggregationParams());
  ASSERT_TRUE(restored.Restore(golden).ok());
  EXPECT_EQ(restored.builds_completed(), 2);
  EXPECT_EQ(restored.builder().samples_seen(), 11);
  EXPECT_EQ(DescribeSpecState(restored.builder(), /*versions=*/false),
            DescribeSpecState(live.builder(), /*versions=*/false));
  EXPECT_EQ(restored.LatestSpec("websearch", "xeon")->version, 2u);
  EXPECT_EQ(restored.LatestSpec("bigtable", "xeon")->version, 2u);
  // The dedup window came back: the replay is absorbed.
  restored.AddSample(GoldenReplay());
  EXPECT_EQ(restored.duplicates_dropped(), 1);
  EXPECT_EQ(restored.builder().samples_seen(), 11);
}

TEST_F(GoldenCompatTest, GoldenFlatHag2CheckpointRestoresExactly) {
  const std::string golden = FromHex(kFlatHag2Hex);
  Aggregator live = GoldenFlatAggregator();
  Aggregator restored(GoldenAggregationParams());
  ASSERT_TRUE(restored.Restore(golden).ok());
  EXPECT_EQ(restored.builds_completed(), 2);
  EXPECT_EQ(restored.builder().samples_seen(), 11);
  EXPECT_EQ(DescribeSpecState(restored.builder()), DescribeSpecState(live.builder()));
  EXPECT_EQ(restored.LatestSpec("websearch", "xeon")->version, 2u);
  EXPECT_EQ(restored.LatestSpec("bigtable", "xeon")->version, 1u);
  // Restored into an aggregator whose interner already placed every key,
  // the state re-checkpoints to the golden bytes.
  ASSERT_TRUE(live.Restore(golden).ok());
  EXPECT_EQ(live.Checkpoint(), golden);
  restored.AddSample(GoldenReplay());
  EXPECT_EQ(restored.duplicates_dropped(), 1);
}

TEST_F(GoldenCompatTest, TodaysTieredAggregatorStillWritesGoldenCheckpoint) {
  const auto aggregator = GoldenTieredAggregator();
  EXPECT_EQ(aggregator->duplicates_dropped(), 1);
  EXPECT_EQ(aggregator->Checkpoint(), FromHex(kTieredHag2Hex));
}

TEST_F(GoldenCompatTest, GoldenTieredCheckpointRestoresExactly) {
  // The read-only CPI2HAG1 fixture holds the CPI2HAG2 fixture's state: it
  // re-checkpoints to exactly those bytes.
  const std::string golden = FromHex(kTieredCheckpointHex);
  HierarchicalAggregator restored(GoldenAggregationParams());
  ASSERT_TRUE(restored.Restore(golden).ok());
  EXPECT_EQ(restored.Checkpoint(), FromHex(kTieredHag2Hex));
  EXPECT_EQ(restored.builds_completed(), 2);
  EXPECT_EQ(restored.samples_seen(), 11);
  const auto websearch = restored.LatestSpec("websearch", "xeon");
  const auto bigtable = restored.LatestSpec("bigtable", "xeon");
  ASSERT_TRUE(websearch.has_value());
  ASSERT_TRUE(bigtable.has_value());
  EXPECT_EQ(websearch->version, 2u);
  EXPECT_EQ(bigtable->version, 1u);
  EXPECT_FALSE(restored.LatestSpec("video", "xeon").has_value());
  restored.AddSample(0, GoldenReplay());
  EXPECT_EQ(restored.duplicates_dropped(), 1);
  EXPECT_EQ(restored.samples_seen(), 11);
}

// ---------------------------------------------------------------------------
// Corruption sweep over the binary checkpoint decoder, once per golden
// fixture. Every damaged blob must be rejected and must leave the target
// untouched: its checkpoint bytes and build count are compared before and
// after.

// Which golden fixture is swept, and into which aggregator: the read-only
// CPAGCKP3 (flat) and CPI2HAG1 (tiered) fixtures, and the CPI2HAG2 fixture
// each aggregator writes.
enum class CheckpointKind { kFlat, kTiered, kFlatHag2, kTieredHag2 };

bool IsFlat(CheckpointKind kind) {
  return kind == CheckpointKind::kFlat || kind == CheckpointKind::kFlatHag2;
}

const char* GoldenHex(CheckpointKind kind) {
  switch (kind) {
    case CheckpointKind::kFlat:
      return kFlatCheckpointHex;
    case CheckpointKind::kTiered:
      return kTieredCheckpointHex;
    case CheckpointKind::kFlatHag2:
      return kFlatHag2Hex;
    case CheckpointKind::kTieredHag2:
      return kTieredHag2Hex;
  }
  return "";
}

// One restore target per format, behind a uniform face. The target holds a
// state unlike the golden one (a third build), so a damaged blob that
// half-applied would show.
class CheckpointTarget {
 public:
  explicit CheckpointTarget(CheckpointKind kind) {
    if (IsFlat(kind)) {
      flat_ = std::make_unique<Aggregator>(GoldenFlatAggregator());
      (void)flat_->ForceBuild(30 * kMicrosPerMinute);
    } else {
      tiered_ = GoldenTieredAggregator();
      (void)tiered_->ForceBuild(30 * kMicrosPerMinute);
    }
  }
  Status Restore(const std::string& blob) {
    return flat_ ? flat_->Restore(blob) : tiered_->Restore(blob);
  }
  std::string Checkpoint() const { return flat_ ? flat_->Checkpoint() : tiered_->Checkpoint(); }
  int64_t builds_completed() const {
    return flat_ ? flat_->builds_completed() : tiered_->builds_completed();
  }

 private:
  std::unique_ptr<Aggregator> flat_;
  std::unique_ptr<HierarchicalAggregator> tiered_;
};

class CheckpointCorruptionTest : public ::testing::TestWithParam<CheckpointKind> {
 protected:
  CheckpointCorruptionTest()
      : golden_(FromHex(GoldenHex(GetParam()))),
        target_(GetParam()),
        before_(target_.Checkpoint()),
        builds_before_(target_.builds_completed()) {}

  // Feeds `blob` to the target; true when it was rejected and the target's
  // state is exactly as before.
  ::testing::AssertionResult RejectedUntouched(const std::string& blob) {
    const Status status = target_.Restore(blob);
    if (status.ok()) {
      return ::testing::AssertionFailure() << "damaged blob restored";
    }
    if (target_.builds_completed() != builds_before_ || target_.Checkpoint() != before_) {
      return ::testing::AssertionFailure() << "rejected blob changed state: " << status.ToString();
    }
    return ::testing::AssertionSuccess();
  }

  bool HasEndRecord() const { return golden_.rfind("CPI2HAG2", 0) == 0; }

  // The golden magic, a valid metadata record, then `payloads` framed, and
  // in CPI2HAG2 an end record counting `end_count` records (default: all of
  // them).
  std::string Crafted(const std::vector<std::string>& payloads, int end_count = -1) const {
    std::string blob = golden_.substr(0, kWireMagicSize);
    std::string payload;
    WireWriter meta(&payload);
    meta.PutByte('M');
    meta.PutZigzag(kMicrosPerMinute);
    meta.PutVarint(1);
    meta.PutVarint(1);
    AppendFramedRecord(&blob, payload);
    for (const std::string& record : payloads) {
      AppendFramedRecord(&blob, record);
    }
    if (HasEndRecord()) {
      std::string end_payload;
      WireWriter end(&end_payload);
      end.PutByte('E');
      end.PutVarint(end_count >= 0 ? static_cast<uint64_t>(end_count) : 1 + payloads.size());
      AppendFramedRecord(&blob, end_payload);
    }
    return blob;
  }

  // Offsets at which a framed record ends (the first is the magic's end).
  std::vector<size_t> RecordBoundaries() const {
    std::vector<size_t> boundaries = {kWireMagicSize};
    WireReader reader(std::string_view(golden_).substr(kWireMagicSize));
    std::string_view payload;
    while (ReadFramedRecord(reader, &payload) == FrameResult::kRecord) {
      boundaries.push_back(golden_.size() - reader.remaining());
    }
    return boundaries;
  }

  const std::string golden_;
  CheckpointTarget target_;
  const std::string before_;
  const int64_t builds_before_;
};

TEST_P(CheckpointCorruptionTest, GoldenBlobRestores) {
  CheckpointTarget fresh(GetParam());
  EXPECT_TRUE(fresh.Restore(golden_).ok());
}

TEST_P(CheckpointCorruptionTest, EveryTruncationInsideARecordIsRejected) {
  const std::vector<size_t> boundaries = RecordBoundaries();
  ASSERT_EQ(boundaries.back(), golden_.size());
  for (size_t length = 0; length < golden_.size(); ++length) {
    if (!HasEndRecord() && length > kWireMagicSize &&
        std::find(boundaries.begin(), boundaries.end(), length) != boundaries.end()) {
      // In the read-only formats a cut between records leaves a well-formed
      // checkpoint holding fewer records: they have no end record to tell
      // it from a whole one. CPI2HAG2 rejects every cut.
      continue;
    }
    EXPECT_TRUE(RejectedUntouched(golden_.substr(0, length))) << "length " << length;
  }
}

TEST_P(CheckpointCorruptionTest, EverySingleBitFlipIsRejected) {
  for (size_t byte = 0; byte < golden_.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string damaged = golden_;
      damaged[byte] = static_cast<char>(damaged[byte] ^ (1 << bit));
      EXPECT_TRUE(RejectedUntouched(damaged)) << "byte " << byte << " bit " << bit;
    }
  }
}

TEST_P(CheckpointCorruptionTest, CrcValidCraftedRecordsAreRejected) {
  const auto payload_of = [](const std::function<void(WireWriter&)>& fill) {
    std::string payload;
    WireWriter record(&payload);
    fill(record);
    return payload;
  };
  const auto with_record = [&](const std::function<void(WireWriter&)>& fill) {
    return Crafted({payload_of(fill)});
  };
  ASSERT_TRUE(CheckpointTarget(GetParam()).Restore(Crafted({})).ok());

  // A dedup entry naming dictionary slot 3 of a one-name dictionary.
  EXPECT_TRUE(RejectedUntouched(with_record([](WireWriter& w) {
    w.PutByte('D');
    w.PutVarint(1);
    w.PutString("m0");
    w.PutVarint(1);
    w.PutVarint(3);
    w.PutVarint(0);
    w.PutZigzag(kMicrosPerMinute);
  })));
  // A history count far larger than the bytes left in the record.
  EXPECT_TRUE(RejectedUntouched(with_record([](WireWriter& w) {
    w.PutByte('H');
    w.PutVarint(1000);
    w.PutString("job");
  })));
  // A tag no writer emits.
  EXPECT_TRUE(RejectedUntouched(with_record([](WireWriter& w) {
    w.PutByte('Z');
    w.PutVarint(0);
  })));
  // Records that end before their fields do: a watermark with no value and
  // a spec cut after its name.
  EXPECT_TRUE(RejectedUntouched(with_record([](WireWriter& w) { w.PutByte('W'); })));
  EXPECT_TRUE(RejectedUntouched(with_record([](WireWriter& w) {
    w.PutByte('S');
    w.PutVarint(1);
    w.PutString("job");
    w.PutString("xeon");
  })));
  // An end record in a format that has none, or one that miscounts.
  const std::string end_record = payload_of([](WireWriter& w) {
    w.PutByte('E');
    w.PutVarint(1);
  });
  if (HasEndRecord()) {
    EXPECT_TRUE(RejectedUntouched(Crafted({}, /*end_count=*/0)));
    EXPECT_TRUE(RejectedUntouched(Crafted({}, /*end_count=*/2)));
    // A record after the end record.
    std::string trailing = Crafted({});
    AppendFramedRecord(&trailing, end_record);
    EXPECT_TRUE(RejectedUntouched(trailing));
    // A spec stamped with version 0, the harness's "never delivered".
    EXPECT_TRUE(RejectedUntouched(with_record([](WireWriter& w) {
      w.PutByte('S');
      w.PutVarint(1);
      w.PutString("job");
      w.PutString("xeon");
      w.PutVarint(10);
      w.PutDouble(0.5);
      w.PutDouble(1.5);
      w.PutDouble(0.1);
      w.PutVarint(0);
    })));
  } else {
    EXPECT_TRUE(RejectedUntouched(Crafted({end_record})));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Formats, CheckpointCorruptionTest,
    ::testing::Values(CheckpointKind::kFlat, CheckpointKind::kTiered, CheckpointKind::kFlatHag2,
                      CheckpointKind::kTieredHag2),
    [](const ::testing::TestParamInfo<CheckpointKind>& param_info) {
      switch (param_info.param) {
        case CheckpointKind::kFlat:
          return std::string("CPAGCKP3");
        case CheckpointKind::kTiered:
          return std::string("CPI2HAG1");
        case CheckpointKind::kFlatHag2:
          return std::string("CPI2HAG2_flat");
        case CheckpointKind::kTieredHag2:
          return std::string("CPI2HAG2_tiered");
      }
      return std::string();
    });

// ---------------------------------------------------------------------------
// CPI2NET1 control frames, byte-frozen at protocol version 1. These are the
// handshake and liveness bytes every v1 agentd/aggregatord pair exchanges;
// captured socket streams from v1 deployments must decode forever, and the
// v1 builders must never drift (a byte of drift desyncs mixed-version
// fleets mid-upgrade). Lengths are explicit: the CRC bytes may be NUL.

// Wire magic + framed hello (v1, role agent, peer "machine-0042", flags 5),
// exactly as a v1 cpi2-agentd opens a connection.
constexpr char kV1HelloStream[] =
    "\x43\x50\x49\x32\x4e\x45\x54\x31\x11\x48\x01\x41\x0c\x6d\x61\x63\x68"
    "\x69\x6e\x65\x2d\x30\x30\x34\x32\x05\x4d\x08\x65\xcc";
constexpr size_t kV1HelloStreamLen = 30;

// Framed hello-ack (v1, role aggregator, peer "cpi2-aggregatord", flags 5).
constexpr char kV1HelloAckFrame[] =
    "\x15\x68\x01\x47\x10\x63\x70\x69\x32\x2d\x61\x67\x67\x72\x65\x67\x61"
    "\x74\x6f\x72\x64\x05\xe1\xf2\xcf\x45";
constexpr size_t kV1HelloAckFrameLen = 26;

// Framed heartbeat ping/pong pair at t=1234567890123.
constexpr char kV1HeartbeatFrame[] =
    "\x07\x70\x96\x93\xd8\x9f\xee\x47\x21\xc3\x77\x11";
constexpr size_t kV1HeartbeatFrameLen = 12;
constexpr char kV1HeartbeatAckFrame[] =
    "\x07\x71\x96\x93\xd8\x9f\xee\x47\x95\xc8\x00\xb7";
constexpr size_t kV1HeartbeatAckFrameLen = 12;
constexpr MicroTime kV1HeartbeatTime = 1234567890123;

// Framed goaway with reason "lame-duck", as lame-duck drain sends it.
constexpr char kV1GoawayFrame[] =
    "\x0b\x47\x09\x6c\x61\x6d\x65\x2d\x64\x75\x63\x6b\xfd\x56\x30\x37";
constexpr size_t kV1GoawayFrameLen = 16;

// Runs one frozen framed record (no magic) through the same FrameAssembler
// a live connection uses and returns the verified payload.
std::string AssembleOne(const char* frame, size_t len) {
  std::string stream;
  AppendWireMagic(&stream, kNetStreamMagic);
  stream.append(frame, len);
  FrameAssembler assembler;
  assembler.Feed(stream);
  std::string_view payload;
  EXPECT_EQ(assembler.Next(&payload), FrameAssembler::Result::kFrame);
  return std::string(payload);
}

TEST_F(GoldenCompatTest, V1HelloStreamDecodesForever) {
  FrameAssembler assembler;
  assembler.Feed(std::string_view(kV1HelloStream, kV1HelloStreamLen));
  std::string_view payload;
  ASSERT_EQ(assembler.Next(&payload), FrameAssembler::Result::kFrame);
  HelloFrame hello;
  bool is_ack = true;
  ASSERT_TRUE(ParseHelloPayload(payload, &hello, &is_ack));
  EXPECT_FALSE(is_ack);
  EXPECT_EQ(hello.version, 1u);
  EXPECT_EQ(hello.role, PeerRole::kAgent);
  EXPECT_EQ(hello.peer_name, "machine-0042");
  EXPECT_EQ(hello.feature_flags, 5u);
  EXPECT_EQ(assembler.Next(&payload), FrameAssembler::Result::kNeedMore);
  EXPECT_FALSE(assembler.HasPartialFrame());
}

TEST_F(GoldenCompatTest, V1HelloAckDecodesForever) {
  HelloFrame hello;
  bool is_ack = false;
  ASSERT_TRUE(ParseHelloPayload(AssembleOne(kV1HelloAckFrame, kV1HelloAckFrameLen),
                                &hello, &is_ack));
  EXPECT_TRUE(is_ack);
  EXPECT_EQ(hello.version, 1u);
  EXPECT_EQ(hello.role, PeerRole::kAggregator);
  EXPECT_EQ(hello.peer_name, "cpi2-aggregatord");
  EXPECT_EQ(hello.feature_flags, 5u);
}

TEST_F(GoldenCompatTest, V1HeartbeatPairDecodesForever) {
  MicroTime send_time = 0;
  bool is_ack = true;
  ASSERT_TRUE(ParseHeartbeatPayload(AssembleOne(kV1HeartbeatFrame, kV1HeartbeatFrameLen),
                                    &send_time, &is_ack));
  EXPECT_FALSE(is_ack);
  EXPECT_EQ(send_time, kV1HeartbeatTime);
  send_time = 0;
  ASSERT_TRUE(ParseHeartbeatPayload(
      AssembleOne(kV1HeartbeatAckFrame, kV1HeartbeatAckFrameLen), &send_time, &is_ack));
  EXPECT_TRUE(is_ack);
  EXPECT_EQ(send_time, kV1HeartbeatTime);
}

TEST_F(GoldenCompatTest, V1GoawayDecodesForever) {
  std::string_view reason;
  const std::string payload = AssembleOne(kV1GoawayFrame, kV1GoawayFrameLen);
  ASSERT_TRUE(ParseGoawayPayload(payload, &reason));
  EXPECT_EQ(reason, "lame-duck");
}

TEST_F(GoldenCompatTest, TodaysBuildersStillEmitV1Bytes) {
  // The inverse direction: the current builders must reproduce the frozen
  // bytes exactly, or a new binary would desync a v1 peer mid-upgrade.
  HelloFrame hello;
  hello.version = 1;
  hello.role = PeerRole::kAgent;
  hello.peer_name = "machine-0042";
  hello.feature_flags = 5;
  std::string payload;
  BuildHelloPayload(hello, /*is_ack=*/false, &payload);
  std::string stream;
  AppendWireMagic(&stream, kNetStreamMagic);
  AppendNetFrame(&stream, payload);
  EXPECT_EQ(stream, std::string(kV1HelloStream, kV1HelloStreamLen));

  hello.role = PeerRole::kAggregator;
  hello.peer_name = "cpi2-aggregatord";
  payload.clear();
  BuildHelloPayload(hello, /*is_ack=*/true, &payload);
  std::string frame;
  AppendNetFrame(&frame, payload);
  EXPECT_EQ(frame, std::string(kV1HelloAckFrame, kV1HelloAckFrameLen));

  payload.clear();
  BuildHeartbeatPayload(kV1HeartbeatTime, /*is_ack=*/false, &payload);
  frame.clear();
  AppendNetFrame(&frame, payload);
  EXPECT_EQ(frame, std::string(kV1HeartbeatFrame, kV1HeartbeatFrameLen));

  payload.clear();
  BuildHeartbeatPayload(kV1HeartbeatTime, /*is_ack=*/true, &payload);
  frame.clear();
  AppendNetFrame(&frame, payload);
  EXPECT_EQ(frame, std::string(kV1HeartbeatAckFrame, kV1HeartbeatAckFrameLen));

  payload.clear();
  BuildGoawayPayload("lame-duck", &payload);
  frame.clear();
  AppendNetFrame(&frame, payload);
  EXPECT_EQ(frame, std::string(kV1GoawayFrame, kV1GoawayFrameLen));
}

// ---------------------------------------------------------------------------
// CPI2SKT1 partial-spec frame, byte-frozen at format version 1: cell 3,
// sequence 7, one websearch/xeon partial holding the samples (1.5, 0.5),
// (2.25, 0.75), (0.8125, 1.0) and two task identities. Cell and global
// aggregators upgrade independently, so a mixed-version tier must keep
// exchanging these bytes forever — and since the encoding is the canonical
// face of the sketch's bit-identity guarantee, a byte of builder drift here
// would also break cross-version spec determinism.

constexpr char kV1SketchFrame[] =
    "\x43\x50\x49\x32\x53\x4b\x54\x31\x1b\x48\x03\x07\x02\x09\x77\x65\x62"
    "\x73\x65\x61\x72\x63\x68\x0b\x78\x65\x6f\x6e\x2d\x32\x2e\x36\x47\x48"
    "\x7a\x01\x11\x4d\xed\xdd\x6e\x50\x00\x01\x03\x80\x80\xc8\x04\x00\x80"
    "\x80\x80\x80\x90\xff\x01\x00\x80\x80\xa0\x02\x00\x00\x00\x40\x00\x00"
    "\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x01\x00\x00\x00\x01"
    "\x00\x01\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00"
    "\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00"
    "\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x02\xc0\xee\x88\xbc\x95"
    "\x9f\xe5\xa6\x5f\x01\x8a\x9e\x89\xbc\x95\xdf\xe8\xa6\x5f\x02\x32\x74"
    "\x8c\x2a";
constexpr size_t kV1SketchFrameLen = 155;

// The exact frame the fixture froze, rebuilt through today's API.
SketchFrame GoldenSketchFrame() {
  SketchFrame frame;
  frame.cell_id = 3;
  frame.sequence = 7;
  frame.names = {"websearch", "xeon-2.6GHz"};
  SketchPartial partial;
  partial.job = 0;
  partial.platform = 1;
  partial.sketch.Add(1.5, 0.5);
  partial.sketch.Add(2.25, 0.75);
  partial.sketch.Add(0.8125, 1.0);
  partial.task_samples = {{TaskIdentityHash("websearch.7"), 2},
                          {TaskIdentityHash("websearch.9"), 1}};
  std::sort(partial.task_samples.begin(), partial.task_samples.end());
  frame.partials.push_back(std::move(partial));
  return frame;
}

TEST_F(GoldenCompatTest, V1SketchFrameDecodesForever) {
  SketchFrame frame;
  SketchFrameDecodeStats stats;
  const Status status = DecodeSketchFrame(
      std::string_view(kV1SketchFrame, kV1SketchFrameLen), &frame, &stats);
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(stats.records_skipped, 0);
  EXPECT_EQ(frame.cell_id, 3u);
  EXPECT_EQ(frame.sequence, 7u);
  ASSERT_EQ(frame.names.size(), 2u);
  EXPECT_EQ(frame.names[0], "websearch");
  EXPECT_EQ(frame.names[1], "xeon-2.6GHz");
  ASSERT_EQ(frame.partials.size(), 1u);
  const SketchPartial& partial = frame.partials[0];
  EXPECT_EQ(partial.job, 0u);
  EXPECT_EQ(partial.platform, 1u);
  EXPECT_EQ(partial.sketch.count(), 3u);
  // All three fixture values are exact multiples of 2^-20, so the decoded
  // moments are exact, not quantization-near.
  EXPECT_NEAR(partial.sketch.cpi_mean(), 4.5625 / 3.0, 1e-12);
  EXPECT_DOUBLE_EQ(partial.sketch.usage_mean(), 0.75);
  // The task identities also freeze TaskIdentityHash itself: a hash change
  // would silently split distinct-task counts across versions.
  ASSERT_EQ(partial.task_samples.size(), 2u);
  EXPECT_EQ(partial.task_samples[0].first, TaskIdentityHash("websearch.9"));
  EXPECT_EQ(partial.task_samples[0].second, 1);
  EXPECT_EQ(partial.task_samples[1].first, TaskIdentityHash("websearch.7"));
  EXPECT_EQ(partial.task_samples[1].second, 2);
  // And the frozen bytes pin the hash values themselves.
  EXPECT_EQ(partial.task_samples[0].first, 6867308805445793600ull);
  EXPECT_EQ(partial.task_samples[1].first, 6867324198608588554ull);
}

TEST_F(GoldenCompatTest, TodaysSketchBuilderStillEmitsV1Bytes) {
  std::string bytes;
  EncodeSketchFrame(GoldenSketchFrame(), &bytes);
  EXPECT_EQ(bytes, std::string(kV1SketchFrame, kV1SketchFrameLen));
}

}  // namespace
}  // namespace cpi2
