// Multiprocessor collection scaling: aggregate sample throughput of the
// threaded per-CPU collection path at 1/2/4/8 simulated CPUs.
//
// The paper's driver keeps all collection state per-CPU precisely so that
// throughput scales with processors (AltaVista on 10-processor machines).
// Here each simulated CPU runs its own workload shard and delivers samples
// into its own driver slot with no locking while the daemon drain thread
// concurrently consumes published buffers — so aggregate samples per unit
// of simulated machine time should scale ~linearly with the CPU count.
//
// The headline column is samples per simulated second (the machine-level
// collection rate; 333 MHz Alpha clock). Host wall-clock throughput is
// reported as a secondary column — on a single-core host the worker
// threads time-share one core, so wall-clock scaling only appears on
// multi-core hosts. `host cpu ms` is the process CPU time spent in the
// run: the busy workers plus whatever the drain thread burns, so a thread
// that spins while idle shows up as CPU time above the workers' share.

#include <time.h>

#include <chrono>

#include "bench/bench_util.h"
#include "src/support/text_table.h"

using namespace dcpi;
using namespace dcpi::bench;

namespace {
constexpr double kClockHz = 333e6;  // the paper's AlphaStation generation

double ProcessCpuSec() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}
}  // namespace

int main() {
  PrintHeader("bench_mp_scaling: per-CPU collection throughput vs CPU count",
              "Section 4.2 (per-processor data, synchronization-free handler)");

  double baseline_sim_rate = 0.0;
  double rate_at_4 = 0.0;

  TextTable table;
  table.SetHeader({"cpus", "samples", "sim cycles", "samples/sim-sec",
                   "scaling", "host ms", "host cpu ms", "samples/host-sec"});
  for (uint32_t cpus : {1u, 2u, 4u, 8u}) {
    WorkloadFactory factory(/*scale=*/0.1, /*seed=*/1);
    Workload workload = factory.ParallelSpecFp(cpus);

    SystemConfig config;
    config.kernel.num_cpus = cpus;
    config.mode = ProfilingMode::kDefault;
    config.period_scale = 1.0 / 32;  // dense sampling for a short run
    config.free_profiling = true;
    config.daemon_drain_interval = 2'000'000;
    System system(config);
    Status status = workload.Instantiate(&system);
    if (!status.ok()) {
      std::fprintf(stderr, "FATAL: %s\n", status.ToString().c_str());
      return 1;
    }
    auto host_start = std::chrono::steady_clock::now();
    double cpu_start = ProcessCpuSec();
    SystemResult result = system.Run();
    double cpu_sec = ProcessCpuSec() - cpu_start;
    double host_sec =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - host_start)
            .count();
    if (result.had_error) {
      std::fprintf(stderr, "FATAL: workload error at %u cpus\n", cpus);
      return 1;
    }

    uint64_t samples = 0;
    for (int e = 0; e < kNumEventTypes; ++e) samples += result.samples[e];
    double sim_sec = static_cast<double>(result.elapsed_cycles) / kClockHz;
    double sim_rate = sim_sec > 0 ? static_cast<double>(samples) / sim_sec : 0;
    if (baseline_sim_rate == 0.0) baseline_sim_rate = sim_rate;
    if (cpus == 4) rate_at_4 = sim_rate;
    char scaling[32];
    std::snprintf(scaling, sizeof(scaling), "%.2fx", sim_rate / baseline_sim_rate);
    table.AddRow({std::to_string(cpus), std::to_string(samples),
                  std::to_string(result.elapsed_cycles), TextTable::Fixed(sim_rate, 0),
                  scaling, TextTable::Fixed(host_sec * 1e3, 1),
                  TextTable::Fixed(cpu_sec * 1e3, 1),
                  TextTable::Fixed(host_sec > 0 ? samples / host_sec : 0, 0)});
  }
  table.Print();

  double speedup_at_4 = rate_at_4 / baseline_sim_rate;
  std::printf("\naggregate collection rate at 4 CPUs: %.2fx the 1-CPU rate %s\n",
              speedup_at_4, speedup_at_4 >= 2.0 ? "(PASS: >= 2x)" : "(FAIL: < 2x)");
  std::printf("per-CPU hash tables + buffer pairs: no cross-CPU cache-line "
              "sharing, no locks in DeliverSample\n");
  return speedup_at_4 >= 2.0 ? 0 : 1;
}
