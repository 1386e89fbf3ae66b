#include "tests/testing/scenario.h"

#include "util/string_util.h"

namespace cpi2 {

VictimScenario MakeVictimScenario(int machines, const TaskSpec& victim_spec,
                                  const Cpi2Params& params, uint64_t seed,
                                  int fillers_per_machine) {
  ClusterHarness::Options options;
  options.cluster.seed = seed;
  options.params = params;
  auto harness = std::make_unique<ClusterHarness>(options);

  harness->cluster().AddMachines(ReferencePlatform(), machines);
  harness->cluster().BuildScheduler();

  VictimScenario scenario;
  // One victim task per machine, placed directly so the layout is known.
  for (int i = 0; i < machines; ++i) {
    TaskSpec spec = victim_spec;
    const std::string name = StrFormat("%s.%d", spec.job_name.c_str(), i);
    Machine* machine = harness->cluster().machine(static_cast<size_t>(i));
    (void)machine->AddTask(name, spec);
    scenario.victim_tasks.push_back(name);
  }
  scenario.victim_task = scenario.victim_tasks.front();
  scenario.victim_machine = harness->cluster().machine(0)->name();

  // Fillers: a couple of light services and a light batch task per machine.
  for (int i = 0; i < machines; ++i) {
    Machine* machine = harness->cluster().machine(static_cast<size_t>(i));
    for (int f = 0; f < fillers_per_machine; ++f) {
      TaskSpec filler = (f % 2 == 0) ? FillerServiceSpec(0.2 + 0.1 * f) : FillerBatchSpec(0.3);
      filler.job_name = StrFormat("%s-%d", filler.job_name.c_str(), f);
      (void)machine->AddTask(StrFormat("%s.%d", filler.job_name.c_str(), i), filler);
    }
  }

  harness->WireAgents();
  scenario.harness = std::move(harness);
  return scenario;
}

std::string InjectAntagonist(VictimScenario& scenario, const TaskSpec& spec,
                             const std::string& task_name) {
  Machine* machine = scenario.harness->cluster().machine(0);
  (void)machine->AddTask(task_name, spec);
  return task_name;
}

std::string SerializeIncident(const Incident& incident) {
  std::string out =
      StrFormat("t=%lld m=%s victim=%s cpi=%.17g thr=%.17g action=%d target=%s cap=%.17g",
                static_cast<long long>(incident.timestamp), incident.machine.c_str(),
                incident.victim_task.c_str(), incident.victim_cpi, incident.cpi_threshold,
                static_cast<int>(incident.action), incident.action_target.c_str(),
                incident.cap_level);
  for (const Suspect& suspect : incident.suspects) {
    out += StrFormat(" %s:%.17g", suspect.task.c_str(), suspect.correlation);
  }
  return out;
}

std::string SerializeMachineState(Cluster& cluster) {
  std::string out;
  for (Machine* machine : cluster.machines()) {
    for (Task* task : machine->Tasks()) {
      out += StrFormat("%s cycles=%llu instr=%llu cpu=%.17g\n", task->name().c_str(),
                       static_cast<unsigned long long>(task->cycles()),
                       static_cast<unsigned long long>(task->instructions()),
                       task->cpu_seconds());
    }
  }
  return out;
}

}  // namespace cpi2
