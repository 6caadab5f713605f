// Figure 10: correlation between I-cache miss stall cycles (as attributed
// by the culprit analysis) and IMISS event counts, per procedure.
//
// Paper: over 1310 SPEC95 procedures, the top/bottom/midpoint of the
// I-cache stall-cycle range correlate with IMISS events at r = 0.91 / 0.86
// / 0.90 — indirect evidence that the culprit analysis is attributing
// stalls to the right cause.
//
// Expected shape here: strong positive correlation between per-procedure
// IMISS events and attributed I-cache stall cycles (upper bound and
// midpoint), using the I-cache-stress and mixed workloads to spread the
// x-axis. Gate (exit 1): all three correlations are at least 0.7.

#include "bench/bench_util.h"
#include "src/support/stats.h"
#include "src/support/text_table.h"

using namespace dcpi;
using namespace dcpi::bench;

int main() {
  PrintHeader("bench_fig10_imiss_correlation: I-cache stall attribution vs IMISS",
              "Figure 10 (Section 6.3)");

  std::vector<double> imiss_events, stall_top, stall_bottom;

  WorkloadFactory factory(/*scale=*/0.5, /*seed=*/1);
  std::vector<Workload> suite;
  suite.push_back(factory.IcacheStress());
  suite.push_back(factory.SpecIntLike());
  suite.push_back(factory.SpecFpLike());
  suite.push_back(factory.X11PerfLike());
  suite.push_back(factory.GccLike(4));

  for (Workload& workload : suite) {
    SystemConfig spec;
    spec.kernel.record_ground_truth = true;  // true I-cache miss events
    spec.mode = ProfilingMode::kDefault;  // IMISS monitored
    spec.period_scale = 1.0 / 16;
    spec.free_profiling = true;
    RunOutput run = RunProfiled(workload, spec);

    for (const ImageTruth& truth : run.system->kernel().ground_truth().images()) {
      const ImageProfile* cycles =
          run.system->daemon()->FindProfile(truth.image->name(), EventType::kCycles);
      const ImageProfile* imiss =
          run.system->daemon()->FindProfile(truth.image->name(), EventType::kImiss);
      if (cycles == nullptr) continue;
      for (const ProcedureSymbol& proc : truth.image->procedures()) {
        AnalysisConfig config;
        Result<ProcedureAnalysis> analysis = AnalyzeProcedure(
            *truth.image, proc, *cycles, imiss, nullptr, nullptr, nullptr, config);
        if (!analysis.ok()) continue;
        double proc_samples = 0;
        double icache_top = 0, icache_bottom = 0;
        for (const InstructionAnalysis& ia : analysis.value().instructions) {
          proc_samples += static_cast<double>(ia.samples);
          if (ia.dynamic_stall <= 0 || ia.frequency <= 0) continue;
          double stall_cycles = ia.dynamic_stall * ia.frequency;
          if (ia.culprits[static_cast<int>(CulpritKind::kIcache)]) {
            icache_top += stall_cycles;
            int candidates = 0;
            for (bool c : ia.culprits) candidates += c;
            if (candidates == 1) {
              icache_bottom += stall_cycles;
            } else {
              icache_bottom += ia.icache_floor_cycles;  // IMISS-derived floor
            }
          }
        }
        if (proc_samples < 100) continue;
        // True IMISS events in the procedure (ground truth).
        double events = 0;
        for (uint64_t off = proc.start - truth.image->text_base();
             off < proc.end - truth.image->text_base(); off += kInstrBytes) {
          events += static_cast<double>(
              truth.instructions[off / kInstrBytes].imiss_events);
        }
        imiss_events.push_back(events);
        stall_top.push_back(icache_top);
        stall_bottom.push_back(icache_bottom);
      }
    }
  }

  std::vector<double> midpoint(stall_top.size());
  for (size_t i = 0; i < stall_top.size(); ++i) {
    midpoint[i] = 0.5 * (stall_top[i] + stall_bottom[i]);
  }
  const double r_top = PearsonCorrelation(imiss_events, stall_top);
  const double r_bottom = PearsonCorrelation(imiss_events, stall_bottom);
  const double r_mid = PearsonCorrelation(imiss_events, midpoint);
  std::printf("procedures: %zu\n\n", imiss_events.size());
  TextTable table;
  table.SetHeader({"series", "correlation with IMISS events", "paper"});
  table.AddRow({"top of range", TextTable::Fixed(r_top, 3), "0.91"});
  table.AddRow({"bottom of range", TextTable::Fixed(r_bottom, 3), "0.86"});
  table.AddRow({"midpoint", TextTable::Fixed(r_mid, 3), "0.90"});
  table.Print();

  std::printf("\nscatter (IMISS events vs attributed I-cache stall-cycle range):\n");
  for (size_t i = 0; i < imiss_events.size(); ++i) {
    if (imiss_events[i] < 1 && stall_top[i] < 1) continue;
    std::printf("  imiss=%10.0f  stall=[%10.0f, %10.0f]\n", imiss_events[i],
                stall_bottom[i], stall_top[i]);
  }

  // Negated so a NaN correlation (no spread) fails too.
  if (!(r_top >= 0.7 && r_bottom >= 0.7 && r_mid >= 0.7)) {
    std::fprintf(stderr,
                 "GATE FAILED: r = %.3f/%.3f/%.3f (top/bottom/mid), need >= 0.7\n",
                 r_top, r_bottom, r_mid);
    return 1;
  }
  std::printf("gate passed: every correlation >= 0.7\n");
  return 0;
}
