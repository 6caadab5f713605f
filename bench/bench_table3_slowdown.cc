// Table 3: overall slowdown (percent) under the three profiling
// configurations.
//
// Paper: with the default 60K-64K CYCLES sampling period, profiling costs
// 1-3% for most workloads across cycles/default/mux configurations, with
// mux slightly above default, and gcc noticeably higher (4-10%) because
// its many short-lived PIDs drive the hash-table eviction rate up.
//
// Expected shape here: low single-digit slowdowns everywhere, ordered
// roughly cycles <= default <= mux, with gcc the clear outlier.

#include "bench/bench_util.h"
#include "src/support/stats.h"
#include "src/support/text_table.h"

using namespace dcpi;
using namespace dcpi::bench;

namespace {

Workload MakeWorkload(size_t index, uint64_t seed) {
  WorkloadFactory factory(/*scale=*/0.2, seed);
  return factory.Table2Suite()[index];
}

}  // namespace

int main() {
  PrintHeader("bench_table3_slowdown: profiling overhead per configuration",
              "Table 3 (Section 5.1)");

  constexpr int kRepeats = 2;
  const ProfilingMode kModes[] = {ProfilingMode::kCycles, ProfilingMode::kDefault,
                                  ProfilingMode::kMux};

  TextTable table;
  table.SetHeader({"workload", "cycles (%)", "default (%)", "mux (%)"});

  size_t num_workloads = WorkloadFactory(0.2).Table2Suite().size();
  for (size_t w = 0; w < num_workloads; ++w) {
    // Base runtimes, one per seed: slowdowns are computed pairwise against
    // the same-seed base run so workload variance cancels.
    std::vector<double> base(kRepeats);
    std::string name;
    for (int r = 0; r < kRepeats; ++r) {
      Workload workload = MakeWorkload(w, static_cast<uint64_t>(r + 1));
      name = workload.name;
      SystemConfig spec;
      spec.kernel.seed = static_cast<uint64_t>(r + 1) * 17;
      RunOutput out = RunProfiled(workload, spec);
      base[r] = static_cast<double>(out.result.elapsed_cycles);
    }

    std::vector<std::string> row = {name};
    for (ProfilingMode mode : kModes) {
      RunningStat slow;
      for (int r = 0; r < kRepeats; ++r) {
        Workload workload = MakeWorkload(w, static_cast<uint64_t>(r + 1));
        SystemConfig spec;
        spec.mode = mode;  // paper's sampling periods (no scaling)
        spec.kernel.seed = static_cast<uint64_t>(r + 1) * 17;
        spec.rng_seed = static_cast<uint32_t>(r + 1);
        RunOutput out = RunProfiled(workload, spec);
        slow.Add(100.0 *
                 (static_cast<double>(out.result.busy_cycles_with_daemon) - base[r]) /
                 base[r]);
      }
      row.push_back(TextTable::WithCi(slow.mean(), slow.ci95_halfwidth(), 1));
    }
    table.AddRow(std::move(row));
  }
  table.Print();
  std::printf(
      "\npaper: 1-3%% for most workloads; gcc 4-10%% due to its hash eviction rate\n");
  return 0;
}
