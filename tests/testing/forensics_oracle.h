// Oracle check for the columnar forensics index: IncidentLog's reference
// scans (SelectLegacy, TopAntagonistsLegacy) must answer every query exactly
// as the index-backed Select / TopAntagonists do.

#ifndef CPI2_TESTS_TESTING_FORENSICS_ORACLE_H_
#define CPI2_TESTS_TESTING_FORENSICS_ORACLE_H_

#include <string>
#include <vector>

#include "core/incident_log.h"

namespace cpi2 {

// Runs every query through both paths: Select must return the same rows
// (pointer-equal, same order), and TopAntagonists over the query's victim
// job and time range must rank the same stats to the last bit, for k = 0
// and k = 3. Returns "" when every answer agrees, else a description of the
// first disagreement.
std::string ForensicsOracleMismatch(const IncidentLog& log,
                                    const std::vector<IncidentLog::Query>& queries);

// The queries a post-mortem of `log` would run: unfiltered, by every victim
// job, by machine, and by quarter of [0, now) with and without capped_only.
std::vector<IncidentLog::Query> PostMortemQueries(const IncidentLog& log, MicroTime now);

}  // namespace cpi2

#endif  // CPI2_TESTS_TESTING_FORENSICS_ORACLE_H_
