#include "core/incident_log_io.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>

#include "tests/testing/incident_text.h"

namespace cpi2 {
namespace {

class IncidentLogIoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("cpi2_incidents_" + std::to_string(getpid()));
    std::filesystem::create_directories(dir_);
    path_ = (dir_ / "incidents.tsv").string();
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  static Incident MakeIncident(MicroTime t) {
    Incident incident;
    incident.timestamp = t;
    incident.machine = "m0042";
    incident.victim_task = "websearch.7";
    incident.victim_job = "websearch";
    incident.platforminfo = "xeon-2.6GHz";
    incident.victim_class = WorkloadClass::kLatencySensitive;
    incident.victim_cpi = 5.0;
    incident.cpi_threshold = 2.12;
    incident.spec_mean = 1.8;
    incident.spec_stddev = 0.16;
    incident.action = IncidentAction::kHardCap;
    incident.action_target = "video.0";
    incident.cap_level = 0.01;
    incident.note = "correlation 0.46 >= 0.35";
    Suspect a;
    a.task = "video.0";
    a.jobname = "video";
    a.workload_class = WorkloadClass::kBatch;
    a.priority = JobPriority::kBestEffort;
    a.correlation = 0.46;
    Suspect b;
    b.task = "bigtable.3";
    b.jobname = "bigtable";
    b.workload_class = WorkloadClass::kLatencySensitive;
    b.priority = JobPriority::kProduction;
    b.correlation = 0.39;
    incident.suspects = {a, b};
    return incident;
  }

  std::filesystem::path dir_;
  std::string path_;
};

TEST_F(IncidentLogIoTest, RoundTripPreservesEverything) {
  IncidentLog log;
  log.Add(MakeIncident(kMicrosPerMinute));
  log.Add(MakeIncident(2 * kMicrosPerMinute));
  ASSERT_TRUE(SaveIncidents(path_, log).ok());

  const auto loaded = LoadIncidents(path_);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ(loaded->size(), 2u);
  const Incident& incident = loaded->incidents()[0];
  EXPECT_EQ(incident.timestamp, kMicrosPerMinute);
  EXPECT_EQ(incident.machine, "m0042");
  EXPECT_EQ(incident.victim_job, "websearch");
  EXPECT_EQ(incident.victim_class, WorkloadClass::kLatencySensitive);
  EXPECT_DOUBLE_EQ(incident.victim_cpi, 5.0);
  EXPECT_DOUBLE_EQ(incident.spec_stddev, 0.16);
  EXPECT_EQ(incident.action, IncidentAction::kHardCap);
  EXPECT_EQ(incident.action_target, "video.0");
  EXPECT_EQ(incident.note, "correlation 0.46 >= 0.35");
  ASSERT_EQ(incident.suspects.size(), 2u);
  EXPECT_EQ(incident.suspects[0].task, "video.0");
  EXPECT_EQ(incident.suspects[0].priority, JobPriority::kBestEffort);
  EXPECT_DOUBLE_EQ(incident.suspects[1].correlation, 0.39);
}

TEST_F(IncidentLogIoTest, QueriesWorkOnReloadedLog) {
  IncidentLog log;
  log.Add(MakeIncident(kMicrosPerMinute));
  log.Add(MakeIncident(2 * kMicrosPerMinute));
  ASSERT_TRUE(SaveIncidents(path_, log).ok());
  const auto loaded = LoadIncidents(path_);
  ASSERT_TRUE(loaded.ok());
  const auto top = loaded->TopAntagonists("websearch", 0, 0, 5);
  ASSERT_EQ(top.size(), 1u);
  EXPECT_EQ(top[0].jobname, "video");
  EXPECT_EQ(top[0].incidents, 2);
  EXPECT_EQ(top[0].times_capped, 2);
}

TEST_F(IncidentLogIoTest, IncidentWithNoSuspectsRoundTrips) {
  IncidentLog log;
  Incident incident = MakeIncident(0);
  incident.suspects.clear();
  incident.action = IncidentAction::kNone;
  incident.action_target.clear();
  log.Add(incident);
  ASSERT_TRUE(SaveIncidents(path_, log).ok());
  const auto loaded = LoadIncidents(path_);
  ASSERT_TRUE(loaded.ok());
  ASSERT_EQ(loaded->size(), 1u);
  EXPECT_TRUE(loaded->incidents()[0].suspects.empty());
}

TEST_F(IncidentLogIoTest, MissingFileIsNotFound) {
  const auto loaded = LoadIncidents(path_);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kNotFound);
}

TEST_F(IncidentLogIoTest, WrongHeaderRejected) {
  std::ofstream(path_) << "not-an-incident-file\n";
  EXPECT_FALSE(LoadIncidents(path_).ok());
}

TEST_F(IncidentLogIoTest, TruncatedRowSkippedWithCount) {
  // A torn line (crash mid-append) must not discard the intact incidents
  // around it: it is skipped, and the skip is counted for the caller.
  IncidentLog log;
  log.Add(MakeIncident(kMicrosPerMinute));
  log.Add(MakeIncident(2 * kMicrosPerMinute));
  ASSERT_TRUE(SaveIncidentsText(path_, log).ok());
  {
    std::ofstream file(path_, std::ios::app);
    file << "123\tm0\tonly-three-fields\n";  // torn tail line
  }
  int64_t skipped = -1;
  const auto loaded = LoadIncidents(path_, &skipped);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->size(), 2u);
  EXPECT_EQ(skipped, 1);
}

TEST_F(IncidentLogIoTest, SkippedLineIsIdentifiedByNumber) {
  // The load stats name the exact line so an operator can inspect the
  // damage: "<path>:<line>: <reason>".
  IncidentLog log;
  log.Add(MakeIncident(kMicrosPerMinute));
  ASSERT_TRUE(SaveIncidentsText(path_, log).ok());
  {
    std::ofstream file(path_, std::ios::app);
    file << "torn\n";
  }
  IncidentLoadStats stats;
  const auto loaded = LoadIncidentsWithStats(path_, &stats);
  ASSERT_TRUE(loaded.ok());
  ASSERT_EQ(stats.skipped.size(), 1u);
  // Header is line 1, the incident line 2, the torn line 3.
  EXPECT_NE(stats.skipped[0].find(path_ + ":3:"), std::string::npos)
      << stats.skipped[0];
}

TEST_F(IncidentLogIoTest, CorruptSuspectColumnSkippedWithCount) {
  IncidentLog log;
  log.Add(MakeIncident(kMicrosPerMinute));
  ASSERT_TRUE(SaveIncidentsText(path_, log).ok());
  // Corrupt the suspects column of a copy of the valid row: right field
  // count, malformed suspect record.
  {
    std::ofstream file(path_, std::ios::app);
    file << "5\tm1\tt\tj\tp\t0\t1\t2\t1\t0.1\t0\tx\t0.5\tnote\tbroken-suspect\n";
  }
  int64_t skipped = -1;
  const auto loaded = LoadIncidents(path_, &skipped);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->size(), 1u);
  EXPECT_EQ(skipped, 1);
}

TEST_F(IncidentLogIoTest, CleanFileReportsZeroSkips) {
  IncidentLog log;
  log.Add(MakeIncident(kMicrosPerMinute));
  ASSERT_TRUE(SaveIncidents(path_, log).ok());
  int64_t skipped = -1;
  ASSERT_TRUE(LoadIncidents(path_, &skipped).ok());
  EXPECT_EQ(skipped, 0);
}

TEST_F(IncidentLogIoTest, SeparatorInNameRejectedAtSave) {
  IncidentLog log;
  Incident incident = MakeIncident(0);
  incident.victim_job = "evil;job";
  log.Add(incident);
  EXPECT_FALSE(SaveIncidentsText(path_, log).ok());
}

TEST_F(IncidentLogIoTest, RejectedTextSaveLeavesPreviousArchiveIntact) {
  // Crash-atomicity corollary: a save that fails (here at encode time) must
  // not clobber the previous archive.
  IncidentLog good;
  good.Add(MakeIncident(kMicrosPerMinute));
  ASSERT_TRUE(SaveIncidentsText(path_, good).ok());
  IncidentLog bad;
  Incident incident = MakeIncident(0);
  incident.victim_job = "evil;job";
  bad.Add(incident);
  ASSERT_FALSE(SaveIncidentsText(path_, bad).ok());
  const auto loaded = LoadIncidents(path_);
  ASSERT_TRUE(loaded.ok());
  ASSERT_EQ(loaded->size(), 1u);
  EXPECT_EQ(loaded->incidents()[0].victim_job, "websearch");
}

TEST_F(IncidentLogIoTest, NoteWithTabsIsSanitized) {
  IncidentLog log;
  Incident incident = MakeIncident(0);
  incident.note = "line one\tline\ntwo";
  log.Add(incident);
  ASSERT_TRUE(SaveIncidentsText(path_, log).ok());
  const auto loaded = LoadIncidents(path_);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->incidents()[0].note, "line one line two");
}

// --- binary format (the only one SaveIncidents writes) ---------------------

TEST_F(IncidentLogIoTest, BinaryAcceptsSeparatorNamesAndTabbedNotes) {
  // The binary encoding has no in-band separators, so names and notes the
  // text format rejects or sanitizes round-trip untouched.
  IncidentLog log;
  Incident incident = MakeIncident(0);
  incident.victim_job = "evil;job";
  incident.note = "line one\tline\ntwo";
  incident.suspects[0].task = "odd,task;name";
  log.Add(incident);
  ASSERT_TRUE(SaveIncidents(path_, log).ok());
  const auto loaded = LoadIncidents(path_);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ(loaded->size(), 1u);
  EXPECT_EQ(loaded->incidents()[0].victim_job, "evil;job");
  EXPECT_EQ(loaded->incidents()[0].note, "line one\tline\ntwo");
  EXPECT_EQ(loaded->incidents()[0].suspects[0].task, "odd,task;name");
}

TEST_F(IncidentLogIoTest, BinaryTornTailSkippedWithIdentity) {
  IncidentLog log;
  log.Add(MakeIncident(kMicrosPerMinute));
  log.Add(MakeIncident(2 * kMicrosPerMinute));
  log.Add(MakeIncident(3 * kMicrosPerMinute));
  ASSERT_TRUE(SaveIncidents(path_, log).ok());
  // Tear off the last 10 bytes, as a crash mid-write would.
  const auto full_size = std::filesystem::file_size(path_);
  std::filesystem::resize_file(path_, full_size - 10);
  IncidentLoadStats stats;
  const auto loaded = LoadIncidentsWithStats(path_, &stats);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->size(), 2u);
  EXPECT_EQ(stats.records_skipped, 1);
  ASSERT_EQ(stats.skipped.size(), 1u);
  EXPECT_NE(stats.skipped[0].find("truncated"), std::string::npos)
      << stats.skipped[0];
}

TEST_F(IncidentLogIoTest, SaveLeavesNoTempFileBehind) {
  IncidentLog log;
  log.Add(MakeIncident(kMicrosPerMinute));
  ASSERT_TRUE(SaveIncidents(path_, log).ok());
  EXPECT_FALSE(std::filesystem::exists(path_ + ".tmp"));
}

TEST_F(IncidentLogIoTest, StaleTempFromKilledSaveIsHarmless) {
  // Simulate a writer killed mid-save: a partial .tmp exists next to a good
  // archive. The archive must load untouched, and the next save must
  // overwrite the stale temp cleanly.
  IncidentLog log;
  log.Add(MakeIncident(kMicrosPerMinute));
  ASSERT_TRUE(SaveIncidents(path_, log).ok());
  std::ofstream(path_ + ".tmp") << "CPI2INC2 partial garbage";
  const auto loaded = LoadIncidents(path_);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->size(), 1u);
  log.Add(MakeIncident(2 * kMicrosPerMinute));
  ASSERT_TRUE(SaveIncidents(path_, log).ok());
  EXPECT_FALSE(std::filesystem::exists(path_ + ".tmp"));
  const auto reloaded = LoadIncidents(path_);
  ASSERT_TRUE(reloaded.ok());
  EXPECT_EQ(reloaded->size(), 2u);
}

TEST_F(IncidentLogIoTest, TextArchiveStillLoadsUnderBinaryDefault) {
  // Auto-detection: an archive written in the v1 text era keeps loading
  // after the default switched to binary.
  IncidentLog log;
  log.Add(MakeIncident(kMicrosPerMinute));
  ASSERT_TRUE(SaveIncidentsText(path_, log).ok());
  const auto loaded = LoadIncidents(path_);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->size(), 1u);
  EXPECT_EQ(loaded->incidents()[0].machine, "m0042");
}

}  // namespace
}  // namespace cpi2
