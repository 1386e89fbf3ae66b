// Result identity of the columnar forensics path against the reference
// scan, over randomized incident logs and query mixes.
//
// The claim under test is exact equivalence, not statistical closeness:
// Select must return the same rows (pointer-for-pointer, in the same
// order) and TopAntagonists the same ranking — including unstable-sort
// tie-breaks and the order-sensitive incremental mean — on any log the
// pipeline can produce: time-ordered or not, with suspect-less incidents,
// duplicate timestamps, capped and uncapped rows.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "core/incident_log.h"
#include "tests/testing/forensics_oracle.h"
#include "util/rng.h"
#include "util/string_util.h"

namespace cpi2 {
namespace {

Incident RandomIncident(Rng& rng, int jobs, int machines, MicroTime timestamp) {
  Incident incident;
  incident.timestamp = timestamp;
  incident.victim_job = StrFormat("victim.%d", static_cast<int>(rng.Uniform(0, jobs)));
  incident.victim_task = incident.victim_job + "/0";
  incident.machine = StrFormat("m.%d", static_cast<int>(rng.Uniform(0, machines)));
  incident.victim_cpi = rng.Uniform(1.0, 6.0);
  if (rng.Bernoulli(0.85)) {
    const int suspects = 1 + static_cast<int>(rng.Uniform(0, 3));
    for (int s = 0; s < suspects; ++s) {
      Suspect suspect;
      // Few distinct antagonist jobs and quantized correlations, so ranking
      // ties (same incident count, same max correlation) actually occur.
      suspect.jobname = StrFormat("antagonist.%d", static_cast<int>(rng.Uniform(0, 6)));
      suspect.task = suspect.jobname + StrFormat("/%d", s);
      suspect.correlation = 0.35 + 0.05 * static_cast<int>(rng.Uniform(0, 10));
      incident.suspects.push_back(std::move(suspect));
    }
    if (rng.Bernoulli(0.4)) {
      incident.action = IncidentAction::kHardCap;
      incident.action_target = rng.Bernoulli(0.7) ? incident.suspects.front().task
                                                  : incident.suspects.back().task;
    } else if (rng.Bernoulli(0.2)) {
      incident.action = IncidentAction::kAlreadyCapped;
    }
  }
  return incident;
}

IncidentLog MakeRandomLog(uint64_t seed, int incidents, bool time_ordered) {
  IncidentLog log;
  Rng rng(seed);
  std::vector<MicroTime> times;
  times.reserve(incidents);
  MicroTime t = 0;
  for (int i = 0; i < incidents; ++i) {
    // Occasional duplicate timestamps even when ordered.
    if (!rng.Bernoulli(0.1)) {
      t += static_cast<MicroTime>(rng.Uniform(1, 30)) * kMicrosPerSecond;
    }
    times.push_back(t);
  }
  if (!time_ordered) {
    for (int i = incidents - 1; i > 0; --i) {
      std::swap(times[i], times[static_cast<int>(rng.Uniform(0, i + 1))]);
    }
  }
  for (int i = 0; i < incidents; ++i) {
    log.Add(RandomIncident(rng, /*jobs=*/12, /*machines=*/8, times[i]));
  }
  return log;
}

std::vector<IncidentLog::Query> QueryMix(Rng& rng, MicroTime span) {
  std::vector<IncidentLog::Query> queries;
  queries.push_back({});  // unconstrained
  for (int i = 0; i < 40; ++i) {
    IncidentLog::Query query;
    if (rng.Bernoulli(0.5)) {
      query.victim_job = StrFormat("victim.%d", static_cast<int>(rng.Uniform(0, 14)));
    }
    if (rng.Bernoulli(0.3)) {
      query.machine = StrFormat("m.%d", static_cast<int>(rng.Uniform(0, 10)));
    }
    if (rng.Bernoulli(0.6)) {
      query.begin = static_cast<MicroTime>(rng.Uniform(0.0, static_cast<double>(span)));
      if (rng.Bernoulli(0.7)) {
        query.end = query.begin + static_cast<MicroTime>(
                                      rng.Uniform(0.0, static_cast<double>(span - query.begin)));
      }
    }
    if (rng.Bernoulli(0.4)) {
      query.min_top_correlation = rng.Uniform(0.3, 0.9);
    }
    query.capped_only = rng.Bernoulli(0.3);
    queries.push_back(std::move(query));
  }
  return queries;
}

void ExpectEquivalent(const IncidentLog& log, MicroTime span, uint64_t query_seed) {
  Rng rng(query_seed);
  const std::vector<IncidentLog::Query> queries = QueryMix(rng, span);
  EXPECT_EQ(ForensicsOracleMismatch(log, queries), "");
  if (log.size() >= 100) {
    size_t nonempty = 0;
    for (const IncidentLog::Query& query : queries) {
      nonempty += log.Select(query).empty() ? 0 : 1;
    }
    EXPECT_GT(nonempty, 5u) << "query mix must actually hit rows";
  }
}

TEST(ForensicsEquivalenceTest, TimeOrderedLogs) {
  for (const int size : {0, 1, 7, 900, 3000}) {
    const IncidentLog log = MakeRandomLog(/*seed=*/100 + size, size, /*time_ordered=*/true);
    const MicroTime span = static_cast<MicroTime>(size + 1) * 30 * kMicrosPerSecond;
    ExpectEquivalent(log, span, /*query_seed=*/200 + size);
  }
}

TEST(ForensicsEquivalenceTest, OutOfOrderLogs) {
  // Shuffled timestamps: the index falls back to segment pruning + per-row
  // checks; results must not change by a single row.
  for (const int size : {7, 900, 3000}) {
    const IncidentLog log = MakeRandomLog(/*seed=*/300 + size, size, /*time_ordered=*/false);
    const MicroTime span = static_cast<MicroTime>(size + 1) * 30 * kMicrosPerSecond;
    ExpectEquivalent(log, span, /*query_seed=*/400 + size);
  }
}

TEST(ForensicsEquivalenceTest, RankingTieBreaksMatch) {
  // Deliberate full ties: every antagonist with the same incident count and
  // max correlation. The ranking order then hinges entirely on the pre-sort
  // sequence both paths feed std::sort — which must be identical.
  IncidentLog log;
  for (int round = 0; round < 3; ++round) {
    for (const char* job : {"zeta", "alpha", "mid", "beta", "omega"}) {
      Incident incident;
      incident.timestamp = static_cast<MicroTime>(round * 5) * kMicrosPerSecond;
      incident.victim_job = "victim";
      incident.victim_task = "victim/0";
      incident.machine = "m.0";
      Suspect suspect;
      suspect.jobname = job;
      suspect.task = std::string(job) + "/0";
      suspect.correlation = 0.5;
      incident.suspects.push_back(suspect);
      log.Add(incident);
    }
  }
  ASSERT_EQ(log.TopAntagonists("victim", 0, 0, 0).size(), 5u);
  IncidentLog::Query query;
  query.victim_job = "victim";
  EXPECT_EQ(ForensicsOracleMismatch(log, {query}), "");
}

}  // namespace
}  // namespace cpi2
