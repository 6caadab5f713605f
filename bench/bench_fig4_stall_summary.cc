// Figure 4: summary of how cycles are spent in the `smooth` procedure.
//
// Paper: for wave5's smooth_, the summary attributes 27.9% of cycles to
// D-cache misses, 9.2-18.3% to DTB misses, 0-6.3% to write buffer,
// small static subtotals (slotting 1.8%, Ra 2.0%, Rb 1.0%), execution
// 51.2%, with a min..max range per dynamic cause.
//
// Expected shape here: smooth_ is memory-system bound — D-cache, DTB, and
// write-buffer are the dominant dynamic causes (as ranges), static stalls
// are a small fraction, and the total tallies to ~100%.
//
// Gated: exits 1 (GATE FAILED on stderr) unless the summary tallies 100.0%
// and the largest dynamic maximum is D-cache, DTB or write buffer.

#include "bench/bench_util.h"
#include "src/tools/dcpicalc.h"

using namespace dcpi;
using namespace dcpi::bench;

int main() {
  PrintHeader("bench_fig4_stall_summary: cycle breakdown for the smooth_ procedure",
              "Figure 4 (Section 3.3)");

  WorkloadFactory factory(/*scale=*/1.0);
  Workload workload = factory.SpecFpLike();
  SystemConfig spec;
  spec.mode = ProfilingMode::kDefault;  // IMISS samples bound the I-cache rows
  spec.period_scale = 1.0 / 16;
  spec.free_profiling = true;
  RunOutput run = RunProfiled(workload, spec);

  auto image = workload.processes[0].images[0];
  Result<ProcedureAnalysis> analysis = AnalyzeFromSystem(*run.system, *image, "smooth_");
  if (!analysis.ok()) {
    std::fprintf(stderr, "analysis failed: %s\n", analysis.status().ToString().c_str());
    return 1;
  }
  std::fputs(FormatStallSummary(analysis.value()).c_str(), stdout);

  const StallSummary& s = analysis.value().summary;
  double memory_system =
      s.dynamic_max_pct[static_cast<int>(CulpritKind::kDcache)] +
      s.dynamic_max_pct[static_cast<int>(CulpritKind::kDtb)] +
      s.dynamic_max_pct[static_cast<int>(CulpritKind::kWriteBuffer)];
  std::printf("\npaper: D-cache 27.9%%, DTB 9.2-18.3%%, write buffer 0-6.3%%, "
              "static subtotal 4.8%%, execution 51.2%%\n");
  std::printf("ours:  memory-system upper bound %.1f%%, static subtotal %.1f%%, "
              "execution %.1f%%\n",
              memory_system, s.subtotal_static(), s.execution_pct);

  // The tally as FormatStallSummary prints it.
  char tally[32];
  std::snprintf(tally, sizeof(tally), "%.1f",
                s.total_dynamic_pct + s.subtotal_static() + s.execution_pct +
                    s.unexplained_gain_pct);
  bool ok = Gate(std::string(tally) == "100.0",
                 std::string("Fig 4 summary tallies ") + tally + "%, need 100.0%");
  const double* largest = std::max_element(s.dynamic_max_pct, s.dynamic_max_pct + kNumCulpritKinds);
  const double memory_max =
      std::max({s.dynamic_max_pct[static_cast<int>(CulpritKind::kDcache)],
                s.dynamic_max_pct[static_cast<int>(CulpritKind::kDtb)],
                s.dynamic_max_pct[static_cast<int>(CulpritKind::kWriteBuffer)]});
  ok = Gate(memory_max == *largest,
            std::string("Fig 4 largest dynamic maximum is ") +
                CulpritKindName(static_cast<CulpritKind>(largest - s.dynamic_max_pct)) +
                ", need D-cache, DTB or write buffer") &&
       ok;
  if (!ok) return 1;
  std::printf("gate passed: tallies 100.0%%, memory system dominates the dynamic stalls\n");
  return 0;
}
