// perfbench: end-to-end benchmark of the CPI2 loop, one workload per process.
//
//   perfbench --workload fleet|storm|loopback --seed N --seconds S
//             [--trace 0|1] [--spans PATH]
//
// Prints human-readable lines plus METRIC / CHECK / COUNT lines (see
// ledger.h); run.py turns those into the benchmark's JSON result. Exits 1
// if any correctness check fails, 2 on bad arguments.

#include <sched.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "ledger.h"
#include "loopback.h"
#include "sim_workloads.h"
#include "util/logging.h"

namespace perfbench {
namespace {

// Simulated seconds per requested wall second. The tick count is fixed by
// --seconds (not by a wall-clock deadline), so sample and incident totals
// are identical in every run at a given seed.
constexpr int kFleetTicksPerSecond = 1000;
constexpr int kStormTicksPerSecond = 2000;
// Fleet's cluster threads and loopback's client count: nproc, at most 4.
constexpr int kMaxParallelism = 4;

int Parallelism() {
  cpu_set_t set;
  CPU_ZERO(&set);
  int cpus = 1;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    cpus = CPU_COUNT(&set);
  }
  return std::max(1, std::min(cpus, kMaxParallelism));
}

int Usage(const char* message) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload fleet|storm|loopback --seed N "
               "--seconds S [--trace 0|1] [--spans PATH]\n",
               message);
  return 2;
}

int Main(int argc, char** argv) {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string spans;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      seconds = std::atof(value);
    } else if (flag == "--trace") {
      trace = std::atoi(value) != 0;
    } else if (flag == "--spans") {
      spans = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (argc % 2 != 1) {
    return Usage("flags take one value each");
  }
  if (seconds <= 0) {
    return Usage("--seconds must be positive");
  }
  cpi2::SetMinLogLevel(cpi2::LogLevel::kWarning);

  Report report;
  if (workload == "fleet" || workload == "storm") {
    const bool storm = workload == "storm";
    RunSim({.storm = storm,
            .seed = seed,
            .threads = storm ? 1 : Parallelism(),
            .ticks = static_cast<int>(seconds *
                                      (storm ? kStormTicksPerSecond : kFleetTicksPerSecond)),
            .trace = trace,
            .spans_path = spans},
           &report);
  } else if (workload == "loopback") {
    RunLoopback({.seed = seed,
                 .clients = Parallelism(),
                 .phase_seconds = 1.5 * seconds,
                 .trace = trace},
                &report);
  } else {
    return Usage("--workload must be fleet, storm or loopback");
  }
  std::fflush(stdout);
  return report.all_passed() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
