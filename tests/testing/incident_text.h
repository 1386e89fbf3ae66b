// The v1 TSV incident-archive encoder, kept as a test fixture writer.
//
// Production saves incidents only in the binary v2 format
// (core/incident_log_io.h); the v1 text loader stays because archives from
// the text era must keep loading. Tests use this encoder to produce those
// text archives.

#ifndef CPI2_TESTS_TESTING_INCIDENT_TEXT_H_
#define CPI2_TESTS_TESTING_INCIDENT_TEXT_H_

#include <string>

#include "core/incident_log.h"
#include "util/status.h"

namespace cpi2 {

// Encodes every incident in `log` as a v1 TSV archive. Names containing the
// format's in-band separators ('\t', '\n', ';', ',') are rejected rather
// than escaped; tabs and newlines in notes become spaces.
Status EncodeIncidentsText(const IncidentLog& log, std::string* out);

// EncodeIncidentsText, then a crash-atomic write to `path`. A rejected
// encode leaves any previous file at `path` untouched.
Status SaveIncidentsText(const std::string& path, const IncidentLog& log);

}  // namespace cpi2

#endif  // CPI2_TESTS_TESTING_INCIDENT_TEXT_H_
