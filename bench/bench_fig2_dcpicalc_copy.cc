// Figure 2: dcpicalc analysis of the McCalpin copy loop.
//
// Paper: best-case CPI 0.62 (8 cycles / 13 instructions), actual CPI 10.77;
// large dynamic stalls on stores with culprits dwD (D-cache miss from the
// feeding ldq, write-buffer overflow, DTB miss); an 's' slotting hazard on
// the adjacent stores; dual-issued instructions with 0 samples.
//
// Expected shape here: identical best-case CPI (0.62), a much larger actual
// CPI, the dominant stalls on stq instructions with d/w/D culprits pointing
// at the feeding loads, slotting hazards between adjacent stores.
//
// Gated: exits 1 (GATE FAILED on stderr) unless the best-case CPI prints
// 0.62, the most-sampled instruction is an stq with the D-cache and
// write-buffer culprits set, and its D-cache culprit is the ldq that loads
// the register it stores.

#include "bench/bench_util.h"
#include "src/tools/dcpicalc.h"

using namespace dcpi;
using namespace dcpi::bench;

int main() {
  PrintHeader("bench_fig2_dcpicalc_copy: instruction-level analysis of the copy loop",
              "Figure 2 (Section 3.2)");

  WorkloadFactory factory(/*scale=*/1.0);
  Workload workload = factory.McCalpin(StreamKernel::kCopy);
  SystemConfig spec;
  spec.mode = ProfilingMode::kDefault;
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
  std::fputs(FormatCalcListing(*image, analysis.value()).c_str(), stdout);

  std::printf("\npaper: best-case 0.62 CPI, actual 10.77 CPI (AlphaStation 500 5/333)\n");
  std::printf("ours:  best-case %.2f CPI, actual %.2f CPI\n",
              analysis.value().best_case_cpi, analysis.value().actual_cpi);

  const ProcedureAnalysis& a = analysis.value();
  char best[32];
  std::snprintf(best, sizeof(best), "%.2f", a.best_case_cpi);
  bool ok = Gate(std::string(best) == "0.62",
                 std::string("Fig 2 best-case CPI ") + best + ", paper 0.62");
  const auto hottest = std::max_element(
      a.instructions.begin(), a.instructions.end(),
      [](const InstructionAnalysis& x, const InstructionAnalysis& y) {
        return x.samples < y.samples;
      });
  const bool stalled_store =
      hottest != a.instructions.end() && hottest->inst.op == Opcode::kStq &&
      hottest->culprits[static_cast<int>(CulpritKind::kDcache)] &&
      hottest->culprits[static_cast<int>(CulpritKind::kWriteBuffer)];
  ok = Gate(stalled_store,
            "Fig 2 most-sampled instruction is not an stq with D-cache and "
            "write-buffer culprits") &&
       ok;
  const auto culprit = std::find_if(
      a.instructions.begin(), a.instructions.end(), [&](const InstructionAnalysis& i) {
        return stalled_store && i.pc == hottest->dcache_culprit_pc;
      });
  ok = Gate(culprit != a.instructions.end() && culprit->inst.op == Opcode::kLdq &&
                culprit->inst.ra == hottest->inst.ra,
            "Fig 2 the stalled stq's D-cache culprit is not the ldq that feeds it") &&
       ok;
  if (!ok) return 1;
  std::printf("gate passed: best-case 0.62 CPI; hottest stq blamed on D-cache and write "
              "buffer, culprit = its feeding ldq\n");
  return 0;
}
