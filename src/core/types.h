// Core data types of CPI2: samples, specs, and workload classification.
//
// The sample and spec layouts follow the records in section 3.1 of the
// paper verbatim (jobname, platforminfo, timestamp, cpu_usage, cpi; and the
// aggregated num_samples, cpu_usage_mean, cpi_mean, cpi_stddev).

#ifndef CPI2_CORE_TYPES_H_
#define CPI2_CORE_TYPES_H_

#include <cstdint>
#include <string>

#include "util/clock.h"

namespace cpi2 {

// Scheduling class: enforcement prefers latency-sensitive victims over
// batch antagonists (section 5).
enum class WorkloadClass { kLatencySensitive, kBatch };

// Priority band (section 2: "production" and "non-production"; best-effort
// batch receives the harshest hard-cap).
enum class JobPriority { kProduction, kNonProduction, kBestEffort };

const char* WorkloadClassName(WorkloadClass c);
const char* JobPriorityName(JobPriority p);

// One per-task CPI measurement, collected once a minute over a 10-second
// counting window.
struct CpiSample {
  std::string jobname;
  std::string platforminfo;  // e.g. CPU type
  MicroTime timestamp = 0;   // microseconds since epoch
  double cpu_usage = 0.0;    // CPU-sec/sec over the window
  double cpi = 0.0;

  // Routing/diagnostic extensions beyond the paper's wire record: which task
  // and machine produced the sample, and the L3 miss rate observed alongside
  // (used by the Figure 15(c) analysis).
  std::string task;
  std::string machine;
  double l3_miss_per_instruction = 0.0;
};

// Aggregated per-job, per-platform CPI statistics: the "CPI spec". Acts as
// the predicted CPI distribution for normal behaviour of the job.
struct CpiSpec {
  std::string jobname;
  std::string platforminfo;
  int64_t num_samples = 0;
  double cpu_usage_mean = 0.0;
  double cpi_mean = 0.0;
  double cpi_stddev = 0.0;

  // The outlier threshold at `sigmas` standard deviations above the mean
  // (the paper flags samples beyond 2 sigma).
  double OutlierThreshold(double sigmas) const { return cpi_mean + sigmas * cpi_stddev; }
};

// A spec plus the build version that produced it, for subscription fan-out:
// a subscriber holding this version needs no redelivery. Versions start at
// 1; 0 is the harness's "never delivered".
struct VersionedSpec {
  CpiSpec spec;
  uint64_t version = 0;
};

// Key identifying a spec: CPI is computed separately per job x CPU type.
struct JobPlatformKey {
  std::string jobname;
  std::string platforminfo;

  bool operator<(const JobPlatformKey& other) const {
    if (jobname != other.jobname) {
      return jobname < other.jobname;
    }
    return platforminfo < other.platforminfo;
  }
  bool operator==(const JobPlatformKey& other) const {
    return jobname == other.jobname && platforminfo == other.platforminfo;
  }
};

}  // namespace cpi2

#endif  // CPI2_CORE_TYPES_H_
