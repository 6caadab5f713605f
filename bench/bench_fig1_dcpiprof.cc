// Figure 1: the key procedures from an x11perf run.
//
// Paper: dcpiprof output for an X11 drawing benchmark; ffb8ZeroPolyArc
// dominates (33.87% of cycles), followed by ReadRequestFromClient, with
// kernel (/vmunix) and shared-library procedures interleaved.
//
// Expected shape here: the ffb fill/arc procedures dominate, OS/mi library
// procedures follow, and /vmunix procedures (swtch, in_checksum, idle_loop)
// appear in the listing — whole-system attribution across shared libraries
// and the kernel.

#include "bench/bench_util.h"
#include "src/tools/dcpiprof.h"

using namespace dcpi;
using namespace dcpi::bench;

int main() {
  PrintHeader("bench_fig1_dcpiprof: procedure-level listing of an x11perf-like run",
              "Figure 1 (Section 3.1)");

  WorkloadFactory factory(/*scale=*/1.0);
  Workload workload = factory.X11PerfLike();
  SystemConfig spec;
  spec.mode = ProfilingMode::kDefault;  // CYCLES + IMISS, as in the figure
  spec.period_scale = 1.0 / 16;
  spec.free_profiling = true;
  RunOutput run = RunProfiled(workload, spec);

  std::vector<ProfInput> inputs = GatherProfInputs(*run.system);
  std::fputs(FormatProcedureListing(ListProcedures(inputs), "imiss").c_str(), stdout);
  std::printf("\nunknown samples: %.3f%% (paper reports ~0.05%% over a week)\n",
              100.0 * run.system->daemon()->UnknownSampleFraction());
  return 0;
}
