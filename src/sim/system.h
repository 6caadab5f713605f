// Top-level simulated system: kernel + CPUs + performance counters +
// DCPI driver + daemon + profile database, wired per run configuration.
//
// The four configurations match Section 5's measurements:
//   base    - no profiling (the workload alone)
//   cycles  - CYCLES counter only
//   default - CYCLES + IMISS
//   mux     - CYCLES + one counter multiplexing IMISS/DMISS/BRANCHMP
//
// Multiprocessor runs (num_cpus > 1) use one host thread per simulated
// CPU: each thread advances its CPU and workload shard and delivers
// samples into its own driver slot with no locking, while a daemon drain
// thread concurrently consumes published overflow buffers (Section 4.2's
// synchronization-free collection path, made real). Periodic driver
// flushes happen at deterministic *simulated* times on the owning thread,
// so the merged profile — and every simulated result — is independent of
// host-thread interleaving. Single-CPU runs take the historical
// single-threaded path and are bit-identical to it.

#ifndef SRC_SIM_SYSTEM_H_
#define SRC_SIM_SYSTEM_H_

#include <memory>
#include <string>
#include <vector>

#include "src/daemon/daemon.h"
#include "src/driver/driver.h"
#include "src/kernel/kernel.h"
#include "src/perfctr/perf_counters.h"
#include "src/profiledb/database.h"

namespace dcpi {

enum class ProfilingMode { kBase, kCycles, kDefault, kMux };

const char* ProfilingModeName(ProfilingMode mode);

struct SystemConfig {
  KernelConfig kernel;
  ProfilingMode mode = ProfilingMode::kBase;
  // Scales all sampling periods; analysis benches use small factors to
  // collect dense profiles from short simulations.
  double period_scale = 1.0;
  // Section 7 extension: capture (PC, next PC) pairs via double sampling.
  bool double_sampling = false;
  // ProfileMe-style memory sampling: this fraction of delivered samples
  // become wide records (data VA + latency + memory level + TLB bit) that
  // bypass the hash table. 0.0 is byte-identical to a build without the
  // feature: no RNG draws, no wide records, no v4 files.
  double mem_fraction = 0.0;
  // Zero out the modelled interrupt/daemon costs. Used by the analysis
  // experiments, which densify the sampling period to emulate a long
  // paper-rate run with a short simulation: at paper periods the handler
  // steals ~1% of head time (negligible bias), but densified 16x it would
  // steal ~12% and systematically inflate every S_i/M_i ratio.
  bool free_profiling = false;
  DriverConfig driver;
  std::string db_root;  // empty: keep profiles in memory only
  uint32_t rng_seed = 1;
  // Drain the driver every this many simulated cycles (the paper's daemon
  // wakes every 5 minutes; scaled down to simulation length).
  uint64_t daemon_drain_interval = 20'000'000;
  // Continuous operation: flush the daemon's in-memory profiles to the
  // database every this many simulated cycles (0 keeps the historical
  // flush-once-at-shutdown behaviour).
  uint64_t daemon_flush_interval = 0;
  // Continuous operation: seal + advance the epoch when the image map
  // changes (process exec/exit). Rolls execute at quiesce points only.
  bool roll_on_map_change = false;
  // One host thread per simulated CPU when num_cpus > 1 (plus a concurrent
  // daemon drain thread). Set false to force the sequential scheduler.
  bool threaded_collection = true;
  // Test hook: nonzero seeds pseudo-random std::this_thread::yield() calls
  // in the per-CPU worker threads to perturb host interleaving, so the
  // determinism tests can vary thread schedules between runs.
  uint32_t host_jitter_seed = 0;
};

struct SystemResult {
  uint64_t elapsed_cycles = 0;        // workload wall-clock incl. handler time
  uint64_t busy_cycles_with_daemon = 0;  // + modelled daemon CPU time
  uint64_t instructions = 0;
  bool had_error = false;
  DriverCpuStats driver_total;
  DaemonStats daemon;
  uint64_t samples[kNumEventTypes] = {};
};

class System {
 public:
  explicit System(const SystemConfig& config);

  Kernel& kernel() { return *kernel_; }
  Daemon* daemon() { return daemon_.get(); }          // null in base mode
  DcpiDriver* driver() { return driver_.get(); }      // null in base mode
  ProfileDatabase* database() { return database_.get(); }
  PerfCounters* counters(uint32_t cpu) {
    return cpu < counters_.size() ? counters_[cpu].get() : nullptr;
  }

  Result<Process*> AddProcess(const std::string& name,
                              std::vector<std::shared_ptr<ExecutableImage>> images,
                              const std::string& entry_proc) {
    return kernel_->CreateProcess(name, std::move(images), entry_proc);
  }

  // Runs the workload to completion (or the cycle cap), draining the daemon
  // periodically, then performs the final flush. Returns the aggregate
  // result used by the overhead tables. Callable repeatedly: a continuous
  // run is a sequence of Run segments with epoch rolls between them.
  SystemResult Run(uint64_t max_cycles = ~0ull);

  // Quiesce-point epoch controls (between Run segments). Both are no-ops
  // without a profiling daemon.
  Status RollEpoch();
  Status SealCurrentEpoch();

 private:
  void RunSequential(uint64_t max_cycles);
  void RunThreaded(uint64_t max_cycles);
  // Per-CPU worker body: advance the CPU's shard in drain-interval chunks,
  // flushing the driver's per-CPU slot at deterministic simulated times.
  void CpuWorker(uint32_t cpu, uint64_t max_cycles);
  // Hands the kernel's pending loader events to the daemon. Without one
  // they are dropped, so a base-mode System holds none across quiesce
  // points.
  void ConsumeLoaderEvents();
  SystemResult BuildResult();

  SystemConfig config_;
  std::unique_ptr<Kernel> kernel_;
  std::unique_ptr<DcpiDriver> driver_;
  std::unique_ptr<ProfileDatabase> database_;
  std::unique_ptr<Daemon> daemon_;
  std::vector<std::unique_ptr<PerfCounters>> counters_;
};

}  // namespace dcpi

#endif  // SRC_SIM_SYSTEM_H_
