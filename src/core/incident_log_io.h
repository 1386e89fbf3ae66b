// Incident log persistence for offline forensics.
//
// "To allow offline analysis, we log and store data about CPIs and
// suspected antagonists. Job owners and administrators can issue SQL-like
// queries against this data" (section 5). This module gives the incident
// log a durable form:
//
//   - v2 binary: the framed format in wire/incident_codec.h — one
//     file-level name dictionary, CRC-guarded records, doubles as raw bits.
//     3-4x smaller than the TSV and immune to in-band separators. Every
//     save writes it.
//   - v1 text: the original versioned TSV, one row per incident, suspects
//     flattened into a ';'-separated column. No longer written, and
//     loadable forever.
//
// LoadIncidents auto-detects the encoding, so archives written by any
// version of this code keep loading.

#ifndef CPI2_CORE_INCIDENT_LOG_IO_H_
#define CPI2_CORE_INCIDENT_LOG_IO_H_

#include <string>
#include <vector>

#include "core/incident_log.h"
#include "util/status.h"

namespace cpi2 {

// Writes every incident in `log` to `path` in the binary encoding,
// crash-atomically (tmp + fsync + rename): a kill mid-save leaves any
// previous archive untouched.
Status SaveIncidents(const std::string& path, const IncidentLog& log);

// What a load skipped, and exactly where. Each entry names the torn or
// corrupted unit — "<path>:<line>: <reason>" for text archives,
// "<path>: record <n>: <reason>" for binary ones — so an operator can go
// look at the damage instead of guessing.
struct IncidentLoadStats {
  int64_t records_skipped = 0;
  std::vector<std::string> skipped;
};

// Loads a saved incident file (either encoding) into a fresh IncidentLog.
//
// Robustness: a truncated or corrupted record (torn TSV line, bad-CRC
// binary record, torn binary tail) is skipped with a logged warning instead
// of failing the whole load — a forensics store must survive a torn write
// at its tail. Only a missing file, a wrong header/magic, or (binary) a
// damaged file dictionary still fails. `*stats`, if non-null, receives the
// skip count and the identity of every skipped record.
StatusOr<IncidentLog> LoadIncidentsWithStats(const std::string& path,
                                             IncidentLoadStats* stats);

// Back-compat wrapper keeping the original count-only out-param.
StatusOr<IncidentLog> LoadIncidents(const std::string& path,
                                    int64_t* lines_skipped = nullptr);

}  // namespace cpi2

#endif  // CPI2_CORE_INCIDENT_LOG_IO_H_
