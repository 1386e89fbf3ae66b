#include "core/incident_log.h"

#include <algorithm>
#include <map>
#include <unordered_map>

namespace cpi2 {

std::vector<const Incident*> IncidentLog::Select(const Query& query) const {
  std::vector<const Incident*> out;
  std::vector<size_t> rows = index_.Select(query);
  out.reserve(rows.size());
  for (const size_t row : rows) {
    out.push_back(&incidents_[row]);
  }
  return out;
}

std::vector<const Incident*> IncidentLog::SelectLegacy(const Query& query) const {
  std::vector<const Incident*> out;
  for (const Incident& incident : incidents_) {
    if (!query.victim_job.empty() && incident.victim_job != query.victim_job) {
      continue;
    }
    if (!query.machine.empty() && incident.machine != query.machine) {
      continue;
    }
    if (query.begin != 0 && incident.timestamp < query.begin) {
      continue;
    }
    if (query.end != 0 && incident.timestamp >= query.end) {
      continue;
    }
    if (query.min_top_correlation > 0.0 &&
        (incident.suspects.empty() ||
         incident.suspects.front().correlation < query.min_top_correlation)) {
      continue;
    }
    if (query.capped_only && incident.action != IncidentAction::kHardCap) {
      continue;
    }
    out.push_back(&incident);
  }
  return out;
}

std::vector<IncidentLog::AntagonistStats> IncidentLog::Rank(std::vector<AntagonistStats> ranked,
                                                            int k) {
  std::sort(ranked.begin(), ranked.end(), [](const AntagonistStats& a, const AntagonistStats& b) {
    if (a.incidents != b.incidents) {
      return a.incidents > b.incidents;
    }
    return a.max_correlation > b.max_correlation;
  });
  if (k > 0 && static_cast<size_t>(k) < ranked.size()) {
    ranked.resize(static_cast<size_t>(k));
  }
  return ranked;
}

std::vector<IncidentLog::AntagonistStats> IncidentLog::TopAntagonists(
    const std::string& victim_job, MicroTime begin, MicroTime end, int k) const {
  Query query;
  query.victim_job = victim_job;
  query.begin = begin;
  query.end = end;

  // Index rows come back in log order, so the incremental mean_correlation
  // update sees correlations in the same sequence as the reference scan —
  // bit-identical accumulation.
  std::unordered_map<uint32_t, AntagonistStats> by_id;
  for (const size_t row : index_.Select(query)) {
    const ForensicsIndex::TopSuspect top = index_.Top(row);
    if (!top.has_suspect) {
      continue;
    }
    AntagonistStats& stats = by_id[top.jobname_id];
    ++stats.incidents;
    if (top.capped_for_top) {
      ++stats.times_capped;
    }
    stats.max_correlation = std::max(stats.max_correlation, top.correlation);
    stats.mean_correlation +=
        (top.correlation - stats.mean_correlation) / static_cast<double>(stats.incidents);
  }

  std::vector<AntagonistStats> ranked;
  ranked.reserve(by_id.size());
  for (auto& [id, stats] : by_id) {
    stats.jobname = index_.JobName(id);
    ranked.push_back(std::move(stats));
  }
  // The reference path feeds Rank() a std::map iteration (ascending
  // jobname); sort the same way so unstable-sort tie-breaks line up.
  std::sort(ranked.begin(), ranked.end(),
            [](const AntagonistStats& a, const AntagonistStats& b) {
              return a.jobname < b.jobname;
            });
  return Rank(std::move(ranked), k);
}

std::vector<IncidentLog::AntagonistStats> IncidentLog::TopAntagonistsLegacy(
    const std::string& victim_job, MicroTime begin, MicroTime end, int k) const {
  Query query;
  query.victim_job = victim_job;
  query.begin = begin;
  query.end = end;

  std::map<std::string, AntagonistStats> by_job;
  for (const Incident* incident : SelectLegacy(query)) {
    if (incident->suspects.empty()) {
      continue;
    }
    const Suspect& top = incident->suspects.front();
    AntagonistStats& stats = by_job[top.jobname];
    stats.jobname = top.jobname;
    ++stats.incidents;
    if (incident->action == IncidentAction::kHardCap && incident->action_target == top.task) {
      ++stats.times_capped;
    }
    stats.max_correlation = std::max(stats.max_correlation, top.correlation);
    stats.mean_correlation += (top.correlation - stats.mean_correlation) /
                              static_cast<double>(stats.incidents);
  }

  std::vector<AntagonistStats> ranked;
  ranked.reserve(by_job.size());
  for (const auto& [job, stats] : by_job) {
    ranked.push_back(stats);
  }
  return Rank(std::move(ranked), k);
}

}  // namespace cpi2
