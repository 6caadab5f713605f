// Table 2: description of workloads.
//
// Paper: a descriptive table of the measured workloads (SPEC95, x11perf,
// McCalpin, AltaVista, DSS, parallel SPECfp, timesharing) with machine
// configuration and base running times. Here we print our synthetic
// equivalents, their process/CPU structure, and measured base runtimes in
// simulated cycles (mean +/- 95% CI over repeated runs, like the paper's
// "mean base runtime" column).

#include "bench/bench_util.h"
#include "src/support/stats.h"
#include "src/support/text_table.h"

using namespace dcpi;
using namespace dcpi::bench;

int main() {
  PrintHeader("bench_table2_workloads: workload suite and base runtimes",
              "Table 2 (Section 5)");

  constexpr int kRepeats = 2;
  TextTable table;
  table.SetHeader({"workload", "cpus", "procs", "mean base cycles (95% CI)",
                   "instructions", "description"});

  for (size_t w = 0;; ++w) {
    WorkloadFactory probe(/*scale=*/0.25, /*seed=*/1);
    std::vector<Workload> suite = probe.Table2Suite();
    if (w >= suite.size()) break;
    RunningStat stat;
    uint64_t instructions = 0;
    std::string name, desc;
    uint32_t cpus = 1;
    size_t procs = 0;
    for (int r = 0; r < kRepeats; ++r) {
      WorkloadFactory factory(/*scale=*/0.25, /*seed=*/static_cast<uint64_t>(r + 1));
      Workload workload = factory.Table2Suite()[w];
      name = workload.name;
      desc = workload.description;
      cpus = std::max(1u, workload.num_cpus);
      procs = workload.processes.size();
      SystemConfig spec;
      spec.kernel.seed = static_cast<uint64_t>(r + 1) * 31;
      RunOutput out = RunProfiled(workload, spec);
      stat.Add(static_cast<double>(out.result.elapsed_cycles));
      instructions = out.result.instructions;
    }
    table.AddRow({name, std::to_string(cpus), std::to_string(procs),
                  TextTable::WithCi(stat.mean(), stat.ci95_halfwidth(), 0),
                  std::to_string(instructions), desc});
  }
  table.Print();
  std::printf("\n(scale 0.25 of default iteration counts; simulated 333 MHz machine)\n");
  return 0;
}
