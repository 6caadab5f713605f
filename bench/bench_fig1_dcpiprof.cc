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
//
// Gated: exits 1 (GATE FAILED on stderr) unless ffb8ZeroPolyArc is the top
// procedure, unknown samples stay below 0.1%, and both a /vmunix row and a
// shared-library row appear.

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

  std::vector<ProcedureRow> rows = ListProcedures(GatherProfInputs(*run.system));
  std::fputs(FormatProcedureListing(rows, "imiss").c_str(), stdout);
  const double unknown_pct = 100.0 * run.system->daemon()->UnknownSampleFraction();
  std::printf("\nunknown samples: %.3f%% (paper reports ~0.05%% over a week)\n",
              unknown_pct);

  auto has_row = [&](auto image_matches) {
    return std::any_of(rows.begin(), rows.end(),
                       [&](const ProcedureRow& row) { return image_matches(row.image); });
  };
  const std::string top = rows.empty() ? "none" : rows[0].procedure;
  bool ok = Gate(top == "ffb8ZeroPolyArc",
                 "Fig 1 top procedure is " + top + ", paper ffb8ZeroPolyArc");
  char unknown[64];
  std::snprintf(unknown, sizeof(unknown), "%.3f%%", unknown_pct);
  ok = Gate(unknown_pct < 0.1, std::string("Fig 1 unknown samples ") + unknown +
                                   ", need below 0.1%") &&
       ok;
  ok = Gate(has_row([](const std::string& image) { return image == "/vmunix"; }) &&
                has_row([](const std::string& image) {
                  return image.rfind("/usr/shlib/", 0) == 0;
                }),
            "Fig 1 listing lacks a /vmunix or a shared-library row") &&
       ok;
  if (!ok) return 1;
  std::printf("gate passed: ffb8ZeroPolyArc on top, unknown below 0.1%%, kernel and "
              "shared-library rows attributed\n");
  return 0;
}
