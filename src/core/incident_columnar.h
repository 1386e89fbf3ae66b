// Columnar forensics index over the incident log.
//
// The incident log's query surface (Select / TopAntagonists) stands in for
// the paper's Dremel queries over logged incidents (section 5). The
// reference implementation scans every incident per query; at forensics
// scale (weeks of incidents, interactive dashboards) that is O(n) per
// query. This index stores the queryable columns struct-of-arrays and keeps
// just enough structure to answer the existing queries in
// O(log n + matches):
//
//  - interned ids: victim job, machine, and top-suspect job names intern to
//    dense uint32 ids once at append time, so query filters compare
//    integers, not heap strings;
//  - posting lists: per victim-job and per-machine row-id lists, appended
//    in arrival order, so the common "incidents for job J" query touches
//    only J's rows;
//  - time-ordered segments: rows group into fixed-size segments carrying
//    min/max timestamps. While appends arrive in time order (the normal
//    case — the harness logs incidents as they happen) time filters binary
//    search directly; out-of-order appends flip a flag and time filters
//    fall back to segment min/max pruning plus per-row checks, never to a
//    wrong answer.
//
// The index answers with row ids in ascending (log) order — the exact
// order the reference scan visits rows — so results built from it are
// identical to the reference scan, including downstream floating-point
// accumulation order and sort tie-breaks. forensics_equivalence_test holds
// that claim against IncidentLog's kept reference scans (SelectLegacy,
// TopAntagonistsLegacy).

#ifndef CPI2_CORE_INCIDENT_COLUMNAR_H_
#define CPI2_CORE_INCIDENT_COLUMNAR_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/incident.h"
#include "util/interner.h"

namespace cpi2 {

class ForensicsIndex {
 public:
  // Typed query, mirroring the paper's "most aggressive antagonists for a
  // job in a particular time window" Dremel use case.
  struct Query {
    // Empty strings / zero times mean "no constraint".
    std::string victim_job;
    std::string machine;
    MicroTime begin = 0;
    MicroTime end = 0;
    // Only incidents whose top suspect clears this correlation.
    double min_top_correlation = 0.0;
    // Only incidents where action was taken.
    bool capped_only = false;
  };

  // Appends the incident's queryable columns as row id rows().
  void Add(const Incident& incident);

  size_t rows() const { return timestamps_.size(); }

  // Row ids matching the query, ascending — the same rows, in the same
  // order, as the reference full scan.
  std::vector<size_t> Select(const Query& query) const;

  // The columns TopAntagonists aggregates, denormalized at append time:
  // the front() suspect's job and correlation, plus whether the incident's
  // cap landed on that suspect.
  struct TopSuspect {
    bool has_suspect = false;
    bool capped_for_top = false;  // action == kHardCap targeting the top suspect
    uint32_t jobname_id = 0;      // valid only when has_suspect
    double correlation = 0.0;
  };
  TopSuspect Top(size_t row) const;

  const std::string& JobName(uint32_t id) const { return names_.NameOf(id); }

 private:
  // Rows per segment: small enough that min/max pruning skips most of an
  // out-of-order log, large enough that segment metadata stays negligible.
  static constexpr size_t kSegmentRows = 512;
  static constexpr uint8_t kHasSuspect = 1;
  static constexpr uint8_t kHardCapped = 2;
  static constexpr uint8_t kCappedForTop = 4;

  struct Segment {
    MicroTime min_ts = 0;
    MicroTime max_ts = 0;
  };

  // First index into `rows` whose timestamp is >= ts (rows ascending by
  // row id; only valid while time_ordered_).
  size_t FirstAtOrAfter(const std::vector<size_t>& rows, MicroTime ts) const;

  // Names from all three columns share one id space.
  StringInterner names_;

  // Struct-of-arrays columns, one entry per incident.
  std::vector<MicroTime> timestamps_;
  std::vector<uint32_t> victim_jobs_;
  std::vector<uint32_t> machines_;
  std::vector<uint32_t> top_suspect_jobs_;
  std::vector<double> top_correlations_;
  std::vector<uint8_t> flags_;

  std::vector<Segment> segments_;
  std::unordered_map<uint32_t, std::vector<size_t>> by_victim_;
  std::unordered_map<uint32_t, std::vector<size_t>> by_machine_;
  bool time_ordered_ = true;
};

}  // namespace cpi2

#endif  // CPI2_CORE_INCIDENT_COLUMNAR_H_
