// Figure 6: distribution of running times under base/cycles/default/mux.
//
// Paper: scatter plots for AltaVista, gcc, and wave5 across the four
// configurations; AltaVista shows small overhead and low variance, gcc
// shows a visible (4-10%) profiling overhead, wave5's run-to-run variance
// exceeds the profiling overhead (an apparent speedup in some runs).
//
// Expected shape here: per-workload run distributions (normalized to the
// base mean) where AltaVista-like clusters tightly near 100%, gcc sits
// visibly above its base, and the wave5-like workload's spread from page
// colouring swamps the overhead.

#include "bench/bench_util.h"
#include "src/support/stats.h"
#include "src/support/text_table.h"

using namespace dcpi;
using namespace dcpi::bench;

namespace {

enum class Which { kAltaVista, kGcc, kWave5 };

Workload Make(Which which, uint64_t seed) {
  WorkloadFactory factory(/*scale=*/0.25, seed);
  switch (which) {
    case Which::kAltaVista:
      return factory.AltaVistaLike();
    case Which::kGcc:
      return factory.GccLike(8);
    case Which::kWave5:
      return factory.SpecFpLike();
  }
  return factory.SpecFpLike();
}

}  // namespace

int main() {
  PrintHeader(
      "bench_fig6_runtime_distribution: run-time scatter per configuration",
      "Figure 6 (Section 5.1)");

  constexpr int kRuns = 4;
  const ProfilingMode kModes[] = {ProfilingMode::kBase, ProfilingMode::kCycles,
                                  ProfilingMode::kDefault, ProfilingMode::kMux};
  const Which kTargets[] = {Which::kAltaVista, Which::kGcc, Which::kWave5};
  const char* kNames[] = {"altavista", "gcc", "wave5"};

  for (int t = 0; t < 3; ++t) {
    // Base mean for normalization.
    RunningStat base;
    std::vector<std::vector<double>> samples(4);
    for (int m = 0; m < 4; ++m) {
      for (int r = 0; r < kRuns; ++r) {
        Workload workload = Make(kTargets[t], static_cast<uint64_t>(r + 1));
        SystemConfig spec;
        spec.mode = kModes[m];
        spec.kernel.seed = static_cast<uint64_t>(r + 1) * 7919;
        spec.rng_seed = static_cast<uint32_t>(r + 1);
        RunOutput out = RunProfiled(workload, spec);
        double cycles = static_cast<double>(out.result.busy_cycles_with_daemon);
        samples[m].push_back(cycles);
        if (m == 0) base.Add(cycles);
      }
    }
    std::printf("%s (normalized to base mean; paper plots 90%%..135%%)\n", kNames[t]);
    TextTable table;
    table.SetHeader({"config", "runs (% of base mean)", "mean%", "ci95"});
    for (int m = 0; m < 4; ++m) {
      RunningStat stat;
      std::string list;
      for (double cycles : samples[m]) {
        double pct = 100.0 * cycles / base.mean();
        stat.Add(pct);
        if (!list.empty()) list += " ";
        list += TextTable::Fixed(pct, 1);
      }
      table.AddRow({ProfilingModeName(kModes[m]), list, TextTable::Fixed(stat.mean(), 1),
                    TextTable::Fixed(stat.ci95_halfwidth(), 1)});
    }
    table.Print();
    std::printf("\n");
  }
  return 0;
}
