#include "tests/testing/forensics_oracle.h"

#include <set>

#include "util/string_util.h"

namespace cpi2 {
namespace {

std::string StatsFingerprint(const std::vector<IncidentLog::AntagonistStats>& ranked) {
  std::string out;
  for (const IncidentLog::AntagonistStats& stats : ranked) {
    out += StrFormat("%s|%d|%d|%.17g|%.17g\n", stats.jobname.c_str(), stats.incidents,
                     stats.times_capped, stats.max_correlation, stats.mean_correlation);
  }
  return out;
}

}  // namespace

std::string ForensicsOracleMismatch(const IncidentLog& log,
                                    const std::vector<IncidentLog::Query>& queries) {
  for (const IncidentLog::Query& query : queries) {
    const std::string where = StrFormat(
        "victim='%s' machine='%s' [%lld, %lld) corr>=%g capped=%d", query.victim_job.c_str(),
        query.machine.c_str(), static_cast<long long>(query.begin),
        static_cast<long long>(query.end), query.min_top_correlation, query.capped_only);
    if (log.Select(query) != log.SelectLegacy(query)) {
      return "Select differs: " + where;
    }
    for (const int k : {0, 3}) {
      if (StatsFingerprint(log.TopAntagonists(query.victim_job, query.begin, query.end, k)) !=
          StatsFingerprint(
              log.TopAntagonistsLegacy(query.victim_job, query.begin, query.end, k))) {
        return StrFormat("TopAntagonists(k=%d) differs: %s", k, where.c_str());
      }
    }
  }
  return "";
}

std::vector<IncidentLog::Query> PostMortemQueries(const IncidentLog& log, MicroTime now) {
  std::vector<IncidentLog::Query> queries(1);  // unfiltered
  std::set<std::string> jobs;
  std::set<std::string> machines;
  for (const Incident& incident : log.incidents()) {
    if (jobs.insert(incident.victim_job).second) {
      queries.emplace_back().victim_job = incident.victim_job;
    }
    if (machines.insert(incident.machine).second) {
      queries.emplace_back().machine = incident.machine;
    }
  }
  for (int quarter = 0; quarter < 4; ++quarter) {
    for (const bool capped_only : {false, true}) {
      IncidentLog::Query& window = queries.emplace_back();
      window.begin = now * quarter / 4;
      window.end = now * (quarter + 1) / 4;
      window.capped_only = capped_only;
    }
  }
  return queries;
}

}  // namespace cpi2
