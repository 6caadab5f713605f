// Section 6.2: how estimate accuracy scales with the number of profiled
// runs, and the analysis cost.
//
// Paper: aggregating 80 runs instead of 1 moves gcc's within-5% share from
// 23% to 53% (integer suite overall: 54% to 70%), but the stubborn -15%
// bucket barely shrinks (classes whose issue points always stall). The
// analysis itself took ~3 minutes for 17 programs.
//
// Expected shape here: accuracy improves monotonically with aggregated
// runs, with diminishing returns, and the analysis wall time is reported.

#include <chrono>

#include "bench/accuracy_util.h"

using namespace dcpi;
using namespace dcpi::bench;

int main() {
  PrintHeader("bench_sec62_estimate_accuracy: accuracy vs profiled runs",
              "Section 6.2");

  const int kRunCounts[] = {1, 4, 8};
  for (int runs : kRunCounts) {
    // Aggregate profiles from `runs` runs by re-running with different
    // seeds into one daemon? Simpler and equivalent: run the workload with
    // a proportionally denser sampling period (the estimate quality depends
    // on total samples gathered).
    AccuracyCollector collector;
    WorkloadFactory factory(/*scale=*/0.4, /*seed=*/1);
    Workload workload = factory.SpecIntLike();
    RunOutput run =
        RunProfiled(workload, AccuracySpec(ProfilingMode::kCycles, 1.0 / (4.0 * runs)));

    auto start = std::chrono::steady_clock::now();
    CollectAccuracy(*run.system, /*min_samples=*/100, &collector);
    auto elapsed = std::chrono::duration<double>(std::chrono::steady_clock::now() - start);

    std::printf("samples equivalent to %d run(s): within 5%% = %5.1f%%, "
                "within 10%% = %5.1f%%, within 15%% = %5.1f%%  "
                "(analysis took %.2fs)\n",
                runs, 100.0 * collector.instr_overall.FractionWithin(5),
                100.0 * collector.instr_overall.FractionWithin(10),
                100.0 * collector.instr_overall.FractionWithin(15), elapsed.count());
  }
  std::printf("\npaper: integer suite 54%% -> 70%% within 5%% going from 1 to 80 runs;\n");
  std::printf("the persistent error bucket (always-stalled classes) does not shrink\n");
  return 0;
}
