// Incident storage and forensics queries.
//
// The paper logs CPI and suspected-antagonist data and lets job owners run
// Dremel (SQL) queries over it, "e.g., to find the most aggressive
// antagonists for a job in a particular time window" (section 5). This is
// the equivalent typed query surface: time-range / job / machine filters
// and a top-K antagonist ranking that can feed the scheduler's
// avoid-co-location constraints.
//
// Storage: incidents append to a deque, so pointers handed out by Select
// stay valid across later appends (a vector would invalidate them on
// reallocation). Queries run through the columnar ForensicsIndex in
// O(log n + matches). The reference O(n) scans (SelectLegacy,
// TopAntagonistsLegacy) stay callable as oracles: they return identical
// results — same rows, same order, same tie-breaks — which
// forensics_equivalence_test and the harness determinism suite check.

#ifndef CPI2_CORE_INCIDENT_LOG_H_
#define CPI2_CORE_INCIDENT_LOG_H_

#include <deque>
#include <string>
#include <vector>

#include "core/incident.h"
#include "core/incident_columnar.h"

namespace cpi2 {

class IncidentLog {
 public:
  void Add(const Incident& incident) {
    incidents_.push_back(incident);
    index_.Add(incident);
  }

  size_t size() const { return incidents_.size(); }
  const std::deque<Incident>& incidents() const { return incidents_; }

  using Query = ForensicsIndex::Query;

  // Matching incidents in log order. The returned pointers remain valid for
  // the log's lifetime, including across subsequent Add calls.
  std::vector<const Incident*> Select(const Query& query) const;

  // Aggregated view of who keeps hurting a job.
  struct AntagonistStats {
    std::string jobname;      // the suspected antagonist job
    int incidents = 0;        // incidents where it was the top suspect
    int times_capped = 0;     // incidents where it was actually capped
    double max_correlation = 0.0;
    double mean_correlation = 0.0;
  };

  // The most aggressive antagonist jobs for `victim_job` (all jobs when
  // empty) in [begin, end) (unbounded when 0), ranked by incident count.
  std::vector<AntagonistStats> TopAntagonists(const std::string& victim_job, MicroTime begin,
                                              MicroTime end, int k) const;

  // Reference full-scan implementations: oracles for the columnar index,
  // kept callable so tests and benches can compare both on one log.
  std::vector<const Incident*> SelectLegacy(const Query& query) const;
  std::vector<AntagonistStats> TopAntagonistsLegacy(const std::string& victim_job,
                                                    MicroTime begin, MicroTime end, int k) const;

 private:
  // Shared ranking tail: sort by (incidents desc, max_correlation desc) and
  // truncate to k. Both paths feed it the same pre-sort sequence (ascending
  // jobname), so unstable-sort tie-breaks agree.
  static std::vector<AntagonistStats> Rank(std::vector<AntagonistStats> ranked, int k);

  std::deque<Incident> incidents_;
  ForensicsIndex index_;
};

}  // namespace cpi2

#endif  // CPI2_CORE_INCIDENT_LOG_H_
