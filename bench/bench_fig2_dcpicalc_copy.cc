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
  return 0;
}
