// The simulated workloads, `fleet` and `storm`.
//
// A run has up to two halves over the same seed and the same simulated span:
//
//  1. The program as shipped: a ClusterHarness is set up (cluster build +
//     WireAgents + PrimeSpecs, repeated five times for a median), then
//     ticked `ticks` times with every Cluster::Tick timed from outside.
//     This half gives the end-to-end numbers.
//  2. Traced runs only: a benchmark-side mirror of the harness's fault-free
//     flat path, built only from public calls, with spans around every call
//     into a layer. It traces alternate blocks of ticks and leaves the others
//     untraced, so the two interleaved halves give the cost of tracing. This
//     half gives the per-layer ledger, and its end state must equal the
//     harness's exactly (samples, incident sequence, cap set, task counters)
//     or the run fails: the ledger describes the same program.
//
// `storm` adds one latency-sensitive victim per machine and, at onset,
// antagonists on a seeded quarter of the machines; the injected set is the
// ground truth the incident log is scored against, and a fixed mix of
// forensic queries runs over the log afterwards.

#ifndef PERFBENCH_SIM_WORKLOADS_H_
#define PERFBENCH_SIM_WORKLOADS_H_

#include <cstdint>
#include <string>

#include "ledger.h"

namespace perfbench {

// Seed of the representative job mix (job sizes, classes, CPU demands). It
// is part of the workload's definition, so it stays fixed; --seed varies the
// machines' noise streams, the scheduler's placement, the storm's antagonist
// machines and the loopback's sample values.
inline constexpr uint64_t kJobMixSeed = 20130415;

struct SimOptions {
  bool storm;
  uint64_t seed;
  int threads;             // Cluster::Options::threads
  int ticks;               // simulated seconds in the measured window
  bool trace;              // run the traced mirror half
  std::string spans_path;  // spine spans TSV; empty = not written
};

void RunSim(const SimOptions& options, Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_SIM_WORKLOADS_H_
