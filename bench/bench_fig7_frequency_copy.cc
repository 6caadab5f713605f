// Figure 7: estimating the frequency of the copy loop.
//
// Paper: for the Figure 2 loop, the M_i column (1 0 1 0 1 0 1 0 1 1 1 0 1),
// the S_i/M_i ratio per issue point, and the heuristic's estimate (1527)
// close to the true frequency (1575.1, within ~3%).
//
// Expected shape here: the same M_i column, the same table layout, and an
// estimate within tens of percent of the true frequency (this loop is the
// hard, fully-saturated case the paper discusses).

#include "bench/bench_util.h"
#include "src/support/text_table.h"

using namespace dcpi;
using namespace dcpi::bench;

int main() {
  PrintHeader("bench_fig7_frequency_copy: frequency estimation of the copy loop",
              "Figure 7 (Section 6.1.3)");

  WorkloadFactory factory(/*scale=*/1.0);
  Workload workload = factory.McCalpin(StreamKernel::kCopy);
  SystemConfig spec;
  spec.kernel.record_ground_truth = true;  // the true-count column
  spec.mode = ProfilingMode::kCycles;
  spec.period_scale = 1.0 / 16;
  spec.free_profiling = true;
  RunOutput run = RunProfiled(workload, spec);

  auto image = workload.processes[0].images[0];
  Result<ProcedureAnalysis> analysis =
      AnalyzeFromSystem(*run.system, *image, "mccalpin_copy");
  if (!analysis.ok()) {
    std::fprintf(stderr, "analysis failed: %s\n", analysis.status().ToString().c_str());
    return 1;
  }

  const ImageTruth* truth = run.system->kernel().ground_truth().FindImage(image.get());

  TextTable table;
  table.SetHeader({"addr", "instruction", "S_i", "M_i", "S_i/M_i", "true count"});
  double estimated_freq = 0;
  double true_freq = 0;
  for (const InstructionAnalysis& ia : analysis.value().instructions) {
    // Print the unrolled loop body only (the hot block).
    if (ia.frequency < analysis.value().total_frequency / 50) continue;
    uint64_t index = (ia.pc - image->text_base()) / kInstrBytes;
    uint64_t true_count = truth->instructions[index].exec_count;
    char addr[16];
    std::snprintf(addr, sizeof(addr), "%06llx", static_cast<unsigned long long>(ia.pc));
    std::string ratio = ia.m > 0 ? TextTable::Fixed(static_cast<double>(ia.samples) /
                                                        static_cast<double>(ia.m),
                                                    0)
                                 : "";
    table.AddRow({addr, Disassemble(ia.inst, ia.pc), std::to_string(ia.samples),
                  std::to_string(ia.m), ratio, std::to_string(true_count)});
    estimated_freq = ia.frequency;
    true_freq = static_cast<double>(true_count);
  }
  table.Print();

  double period = run.system->counters(0)->MeanPeriod(EventType::kCycles);
  std::printf("\nsampling period: %.0f cycles\n", period);
  std::printf("estimated frequency (executions): %.0f\n", estimated_freq);
  std::printf("true frequency (executions):      %.0f\n", true_freq);
  std::printf("relative error: %+.1f%%  (paper: 1527 vs 1575.1 = -3.1%%)\n",
              100.0 * (estimated_freq - true_freq) / true_freq);
  return 0;
}
