#include "tests/testing/incident_text.h"

#include <vector>

#include "util/file_util.h"
#include "util/string_util.h"

namespace cpi2 {
namespace {

bool SafeName(const std::string& name) {
  return name.find_first_of("\t\n;,") == std::string::npos;
}

std::string EncodeSuspects(const std::vector<Suspect>& suspects) {
  std::vector<std::string> parts;
  parts.reserve(suspects.size());
  for (const Suspect& suspect : suspects) {
    parts.push_back(StrFormat("%s,%s,%d,%d,%.9g", suspect.task.c_str(),
                              suspect.jobname.c_str(),
                              static_cast<int>(suspect.workload_class),
                              static_cast<int>(suspect.priority), suspect.correlation));
  }
  return Join(parts, ";");
}

}  // namespace

Status EncodeIncidentsText(const IncidentLog& log, std::string* out) {
  for (const Incident& incident : log.incidents()) {
    if (!SafeName(incident.victim_task) || !SafeName(incident.victim_job) ||
        !SafeName(incident.machine) || !SafeName(incident.action_target)) {
      return InvalidArgumentError("incident names must not contain separators");
    }
    for (const Suspect& suspect : incident.suspects) {
      if (!SafeName(suspect.task) || !SafeName(suspect.jobname)) {
        return InvalidArgumentError("suspect names must not contain separators");
      }
    }
  }
  out->assign("cpi2-incidents-v1\n");
  for (const Incident& incident : log.incidents()) {
    std::string note = incident.note;
    for (char& c : note) {
      if (c == '\t' || c == '\n') {
        c = ' ';
      }
    }
    *out += StrFormat(
        "%lld\t%s\t%s\t%s\t%s\t%d\t%.9g\t%.9g\t%.9g\t%.9g\t%d\t%s\t%.9g\t%s\t%s\n",
        static_cast<long long>(incident.timestamp), incident.machine.c_str(),
        incident.victim_task.c_str(), incident.victim_job.c_str(),
        incident.platforminfo.c_str(), static_cast<int>(incident.victim_class),
        incident.victim_cpi, incident.cpi_threshold, incident.spec_mean,
        incident.spec_stddev, static_cast<int>(incident.action),
        incident.action_target.c_str(), incident.cap_level, note.c_str(),
        EncodeSuspects(incident.suspects).c_str());
  }
  return Status::Ok();
}

Status SaveIncidentsText(const std::string& path, const IncidentLog& log) {
  std::string contents;
  const Status encoded = EncodeIncidentsText(log, &contents);
  if (!encoded.ok()) {
    return encoded;
  }
  return AtomicWriteFile(path, contents);
}

}  // namespace cpi2
