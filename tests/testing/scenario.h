// Shared scenario builders for integration tests and figure harnesses.

#ifndef CPI2_TESTS_TESTING_SCENARIO_H_
#define CPI2_TESTS_TESTING_SCENARIO_H_

#include <memory>
#include <string>
#include <vector>

#include "harness/cluster_harness.h"
#include "workload/profiles.h"

namespace cpi2 {

// Parameters scaled down so tests train specs in simulated minutes instead
// of the production 24 h cycle. Detection/identification/enforcement
// thresholds keep their paper values.
inline Cpi2Params FastTestParams() {
  Cpi2Params params;
  params.min_tasks_for_spec = 5;
  params.min_samples_per_task = 5;
  params.spec_update_interval = 30 * kMicrosPerMinute;
  return params;
}

struct VictimScenario {
  std::unique_ptr<ClusterHarness> harness;
  std::string victim_task;     // one task of the victim job, on machine 0
  std::string victim_machine;  // machine 0's name
  std::vector<std::string> victim_tasks;
};

// Builds `machines` single-platform machines, spreads a latency-sensitive
// victim job across them (one task per machine), and adds a few innocuous
// filler services per machine. No antagonist yet: inject one after priming
// with InjectAntagonist().
VictimScenario MakeVictimScenario(int machines, const TaskSpec& victim_spec,
                                  const Cpi2Params& params, uint64_t seed = 42,
                                  int fillers_per_machine = 3);

// Places `spec` as a fresh task named `task_name` on the scenario's victim
// machine (machine 0) and returns its name.
std::string InjectAntagonist(VictimScenario& scenario, const TaskSpec& spec,
                             const std::string& task_name);

// Exact-comparison renderings for determinism tests. SerializeIncident
// prints every double with %.17g; SerializeMachineState prints each task's
// cycle, instruction and CPU-time counters, machine by machine.
std::string SerializeIncident(const Incident& incident);
std::string SerializeMachineState(Cluster& cluster);

}  // namespace cpi2

#endif  // CPI2_TESTS_TESTING_SCENARIO_H_
