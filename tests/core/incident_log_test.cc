#include "core/incident_log.h"

#include <gtest/gtest.h>

#include "tests/testing/forensics_oracle.h"

namespace cpi2 {
namespace {

Incident MakeIncident(MicroTime t, const std::string& victim_job,
                      const std::string& antagonist_job, double correlation,
                      bool capped = false, const std::string& machine = "m0") {
  Incident incident;
  incident.timestamp = t;
  incident.machine = machine;
  incident.victim_job = victim_job;
  incident.victim_task = victim_job + ".0";
  Suspect suspect;
  suspect.task = antagonist_job + ".0";
  suspect.jobname = antagonist_job;
  suspect.correlation = correlation;
  incident.suspects.push_back(suspect);
  if (capped) {
    incident.action = IncidentAction::kHardCap;
    incident.action_target = suspect.task;
    incident.cap_level = 0.01;
  }
  return incident;
}

class IncidentLogTest : public ::testing::Test {
 protected:
  void SetUp() override {
    log_.Add(MakeIncident(1 * kMicrosPerMinute, "search", "video", 0.5, true));
    log_.Add(MakeIncident(2 * kMicrosPerMinute, "search", "video", 0.4, true));
    log_.Add(MakeIncident(3 * kMicrosPerMinute, "search", "mapreduce", 0.6, false, "m1"));
    log_.Add(MakeIncident(4 * kMicrosPerMinute, "ads", "video", 0.3));
    log_.Add(MakeIncident(5 * kMicrosPerMinute, "ads", "scan", 0.45, true));
  }

  IncidentLog log_;
};

TEST_F(IncidentLogTest, SelectAll) {
  EXPECT_EQ(log_.Select({}).size(), 5u);
  EXPECT_EQ(log_.size(), 5u);
}

TEST_F(IncidentLogTest, SelectByVictimJob) {
  IncidentLog::Query query;
  query.victim_job = "search";
  EXPECT_EQ(log_.Select(query).size(), 3u);
}

TEST_F(IncidentLogTest, SelectByMachine) {
  IncidentLog::Query query;
  query.machine = "m1";
  const auto rows = log_.Select(query);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0]->suspects.front().jobname, "mapreduce");
}

TEST_F(IncidentLogTest, SelectByTimeRange) {
  IncidentLog::Query query;
  query.begin = 2 * kMicrosPerMinute;
  query.end = 4 * kMicrosPerMinute;  // half-open
  EXPECT_EQ(log_.Select(query).size(), 2u);
}

TEST_F(IncidentLogTest, SelectByCorrelationAndAction) {
  IncidentLog::Query query;
  query.min_top_correlation = 0.45;
  EXPECT_EQ(log_.Select(query).size(), 3u);
  query.capped_only = true;
  EXPECT_EQ(log_.Select(query).size(), 2u);
}

TEST_F(IncidentLogTest, TopAntagonistsRankedByIncidents) {
  const auto top = log_.TopAntagonists("", 0, 0, 10);
  ASSERT_EQ(top.size(), 3u);
  EXPECT_EQ(top[0].jobname, "video");
  EXPECT_EQ(top[0].incidents, 3);
  EXPECT_EQ(top[0].times_capped, 2);
  EXPECT_DOUBLE_EQ(top[0].max_correlation, 0.5);
  EXPECT_NEAR(top[0].mean_correlation, 0.4, 1e-9);
}

TEST_F(IncidentLogTest, TopAntagonistsForOneVictim) {
  const auto top = log_.TopAntagonists("ads", 0, 0, 10);
  ASSERT_EQ(top.size(), 2u);
  // Both have one incident; tie broken by max correlation.
  EXPECT_EQ(top[0].jobname, "scan");
}

TEST_F(IncidentLogTest, TopAntagonistsHonorsK) {
  EXPECT_EQ(log_.TopAntagonists("", 0, 0, 1).size(), 1u);
}

TEST_F(IncidentLogTest, LegacyScanPathMatchesOnFixtureQueries) {
  const std::vector<IncidentLog::Query> queries = [] {
    std::vector<IncidentLog::Query> qs(5);
    qs[1].victim_job = "search";
    qs[2].machine = "m1";
    qs[3].begin = 2 * kMicrosPerMinute;
    qs[3].end = 4 * kMicrosPerMinute;
    qs[4].min_top_correlation = 0.45;
    qs[4].capped_only = true;
    return qs;
  }();
  EXPECT_EQ(ForensicsOracleMismatch(log_, queries), "");
}

TEST_F(IncidentLogTest, OutOfOrderTimestampsStillFilterCorrectly) {
  // Appends behind the log's head: the index drops its binary-search fast
  // path but time filters must stay exact.
  log_.Add(MakeIncident(30 * kMicrosPerSecond, "search", "video", 0.7));
  IncidentLog::Query query;
  query.begin = 1 * kMicrosPerMinute;
  query.end = 4 * kMicrosPerMinute;
  EXPECT_EQ(log_.Select(query).size(), 3u);
  query.begin = 0;
  query.end = 1 * kMicrosPerMinute;
  const auto rows = log_.Select(query);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0]->timestamp, 30 * kMicrosPerSecond);
}

TEST(IncidentLogStorageTest, SelectPointersSurviveGrowth) {
  // Regression: Select once returned pointers into a std::vector, which
  // invalidated them on the next reallocation. Query, append far past any
  // initial capacity (and across index segment boundaries), then re-read.
  IncidentLog log;
  log.Add(MakeIncident(1, "search", "video", 0.5, true));
  IncidentLog::Query query;
  query.victim_job = "search";
  const auto rows = log.Select(query);
  ASSERT_EQ(rows.size(), 1u);
  const Incident* pinned = rows[0];
  const std::string victim_task = pinned->victim_task;

  for (int i = 0; i < 2000; ++i) {
    log.Add(MakeIncident(2 + i, "ads", "scan", 0.4));
  }

  EXPECT_EQ(pinned->victim_task, victim_task) << "pointer dangled after growth";
  EXPECT_EQ(pinned->suspects.front().jobname, "video");
  const auto again = log.Select(query);
  ASSERT_EQ(again.size(), 1u);
  EXPECT_EQ(again[0], pinned) << "same row must come back at the same address";
  EXPECT_EQ(log.Select({}).size(), 2001u);
}

TEST(IncidentSummaryTest, SummaryMentionsKeyFacts) {
  const Incident incident = MakeIncident(0, "search", "video", 0.52, true);
  const std::string summary = incident.Summary();
  EXPECT_NE(summary.find("search"), std::string::npos);
  EXPECT_NE(summary.find("hard-capped"), std::string::npos);
  EXPECT_NE(summary.find("video.0"), std::string::npos);
}

}  // namespace
}  // namespace cpi2
