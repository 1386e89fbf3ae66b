// Figure 1: CDFs of the number of tasks and threads per machine.
//
// The paper shows that the vast majority of machines run many tasks (up to
// ~100) and up to ~10,000 threads. We build a representative cluster through
// the normal scheduler and report the resulting per-machine distributions.

#include <vector>

#include "bench/common/report.h"
#include "workload/cluster_builder.h"

namespace cpi2 {
namespace {

void Run() {
  PrintHeader("Figure 1", "CDFs of tasks per machine and threads per machine");
  PrintPaperClaim("most machines run tens of tasks (tail to ~100) and up to ~10k threads");

  Cluster::Options options;
  options.seed = 101;
  // Over-commit mirrors production: batch reservations stack well past the
  // core count, which is what yields the dense machines in the tail.
  options.scheduler.batch_overcommit = 2.5;
  Cluster cluster(options);
  ClusterMixOptions mix;
  mix.machines = 300;
  mix.mean_tasks_per_machine = 30.0;
  mix.seed = 7;
  BuildRepresentativeCluster(&cluster, mix);

  std::vector<double> tasks_per_machine;
  std::vector<double> threads_per_machine;
  for (Machine* machine : cluster.machines()) {
    tasks_per_machine.push_back(static_cast<double>(machine->task_count()));
    double threads = 0.0;
    for (Task* task : machine->Tasks()) {
      threads += task->threads();
    }
    threads_per_machine.push_back(threads);
  }

  const EmpiricalDistribution tasks(std::move(tasks_per_machine));
  const EmpiricalDistribution threads(std::move(threads_per_machine));
  PrintCdf("tasks per machine (Figure 1a)", tasks);
  PrintCdf("threads per machine (Figure 1b)", threads);
  PrintResult("tasks_per_machine_median", tasks.Percentile(0.5));
  PrintResult("tasks_per_machine_p95", tasks.Percentile(0.95));
  PrintResult("tasks_per_machine_max", tasks.max());
  PrintResult("threads_per_machine_median", threads.Percentile(0.5));
  PrintResult("threads_per_machine_max", threads.max());
  const bool shape = tasks.Percentile(0.5) >= 10.0 && threads.max() >= 1000.0;
  PrintResult("shape_holds",
              shape ? "yes (machines host tens of tasks and thousands of threads; our "
                      "spread is narrower than Borg's — see EXPERIMENTS.md)"
                    : "NO");
}

}  // namespace
}  // namespace cpi2

int main() {
  cpi2::Run();
  return cpi2::VerdictExitCode();
}
