#include "core/incident_log_io.h"

#include <sstream>

#include "util/file_util.h"
#include "util/logging.h"
#include "util/string_util.h"
#include "wire/framing.h"
#include "wire/incident_codec.h"

namespace cpi2 {
namespace {

// v1 text archives: this header line, then one TSV row per incident with
// the suspects flattened into a ';'-separated column of ','-separated
// fields. Read-only: archives are written in the binary format.
constexpr char kHeader[] = "cpi2-incidents-v1";

StatusOr<std::vector<Suspect>> DecodeSuspects(const std::string& text) {
  std::vector<Suspect> suspects;
  if (text.empty()) {
    return suspects;
  }
  std::istringstream stream(text);
  std::string item;
  while (std::getline(stream, item, ';')) {
    std::istringstream fields(item);
    Suspect suspect;
    std::string class_text;
    std::string priority_text;
    std::string correlation_text;
    if (!std::getline(fields, suspect.task, ',') ||
        !std::getline(fields, suspect.jobname, ',') ||
        !std::getline(fields, class_text, ',') ||
        !std::getline(fields, priority_text, ',') ||
        !std::getline(fields, correlation_text)) {
      return InvalidArgumentError("malformed suspect record: " + item);
    }
    suspect.workload_class = static_cast<WorkloadClass>(std::atoi(class_text.c_str()));
    suspect.priority = static_cast<JobPriority>(std::atoi(priority_text.c_str()));
    suspect.correlation = std::atof(correlation_text.c_str());
    suspects.push_back(std::move(suspect));
  }
  return suspects;
}

StatusOr<IncidentLog> LoadIncidentsText(const std::string& path, const std::string& contents,
                                        IncidentLoadStats* stats) {
  std::istringstream file(contents);
  std::string line;
  if (!std::getline(file, line) || line != kHeader) {
    return InvalidArgumentError(path + ": missing or wrong header");
  }
  const auto skip = [&](int line_number, const std::string& reason) {
    CPI2_LOG(WARNING) << path << ":" << line_number << ": " << reason << "; skipping line";
    if (stats != nullptr) {
      ++stats->records_skipped;
      stats->skipped.push_back(StrFormat("%s:%d: %s", path.c_str(), line_number, reason.c_str()));
    }
  };
  IncidentLog log;
  int line_number = 1;
  while (std::getline(file, line)) {
    ++line_number;
    if (line.empty() || line[0] == '#') {
      continue;
    }
    std::istringstream in(line);
    std::vector<std::string> fields;
    std::string field;
    while (std::getline(in, field, '\t')) {
      fields.push_back(field);
    }
    if (fields.size() == 14) {
      // A trailing empty suspects column is dropped by the splitter.
      fields.emplace_back();
    }
    if (fields.size() != 15) {
      // Truncated or torn line (e.g. a crash mid-append): skip it rather
      // than discarding every intact incident in the file.
      skip(line_number,
           StrFormat("expected 15 fields, got %zu", fields.size()));
      continue;
    }
    Incident incident;
    incident.timestamp = std::strtoll(fields[0].c_str(), nullptr, 10);
    incident.machine = fields[1];
    incident.victim_task = fields[2];
    incident.victim_job = fields[3];
    incident.platforminfo = fields[4];
    incident.victim_class = static_cast<WorkloadClass>(std::atoi(fields[5].c_str()));
    incident.victim_cpi = std::atof(fields[6].c_str());
    incident.cpi_threshold = std::atof(fields[7].c_str());
    incident.spec_mean = std::atof(fields[8].c_str());
    incident.spec_stddev = std::atof(fields[9].c_str());
    incident.action = static_cast<IncidentAction>(std::atoi(fields[10].c_str()));
    incident.action_target = fields[11];
    incident.cap_level = std::atof(fields[12].c_str());
    incident.note = fields[13];
    auto suspects = DecodeSuspects(fields[14]);
    if (!suspects.ok()) {
      skip(line_number, suspects.status().message());
      continue;
    }
    incident.suspects = std::move(*suspects);
    log.Add(incident);
  }
  return log;
}

StatusOr<IncidentLog> LoadIncidentsBinary(const std::string& path, const std::string& contents,
                                          IncidentLoadStats* stats) {
  std::vector<Incident> incidents;
  IncidentDecodeStats decode_stats;
  const Status status = DecodeIncidentFile(contents, &incidents, &decode_stats);
  if (!status.ok()) {
    return InvalidArgumentError(path + ": " + status.message());
  }
  for (const std::string& reason : decode_stats.skip_reasons) {
    CPI2_LOG(WARNING) << path << ": " << reason << "; skipping record";
    if (stats != nullptr) {
      stats->skipped.push_back(path + ": " + reason);
    }
  }
  if (stats != nullptr) {
    stats->records_skipped += decode_stats.records_skipped;
  }
  IncidentLog log;
  for (const Incident& incident : incidents) {
    log.Add(incident);
  }
  return log;
}

}  // namespace

Status SaveIncidents(const std::string& path, const IncidentLog& log) {
  std::string contents;
  EncodeIncidentFile(log.incidents(), &contents);
  return AtomicWriteFile(path, contents);
}

StatusOr<IncidentLog> LoadIncidentsWithStats(const std::string& path,
                                             IncidentLoadStats* stats) {
  StatusOr<std::string> contents = ReadFileToString(path);
  if (!contents.ok()) {
    return contents.status();
  }
  if (HasWireMagic(*contents, kIncidentFileMagic)) {
    return LoadIncidentsBinary(path, *contents, stats);
  }
  return LoadIncidentsText(path, *contents, stats);
}

StatusOr<IncidentLog> LoadIncidents(const std::string& path, int64_t* lines_skipped) {
  IncidentLoadStats stats;
  StatusOr<IncidentLog> loaded = LoadIncidentsWithStats(path, &stats);
  if (lines_skipped != nullptr) {
    *lines_skipped = stats.records_skipped;
  }
  return loaded;
}

}  // namespace cpi2
