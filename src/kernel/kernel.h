// The simulated operating system: image loader, process table, and a
// round-robin multi-CPU scheduler.
//
// The kernel plays the roles DIGITAL Unix plays for DCPI:
//   * the modified /sbin/loader: every image mapping emits a loader event
//     the profiling daemon consumes to build per-process load maps;
//   * the scheduler: context switches execute a real `swtch` routine from a
//     simulated `vmunix` image, and idle CPUs execute its `idle_loop`, so
//     kernel time is profiled exactly like user code (Figure 1 lists
//     /vmunix rows);
//   * PID management and process reaping. A process that ends (halt, bad
//     PC or bad memory) goes on its CPU's exited list; ReleaseExited()
//     frees its address space (pages, page colouring, memos) but keeps
//     the Process object, so its state and counters stay readable. The
//     System calls it at every quiesce point. Run() and RunCpuShard()
//     never release, so a Kernel driven directly keeps an exited
//     process's memory readable.
//
// Ground truth is recorded only on request (KernelConfig::
// record_ground_truth), as the paper took its dcpix reference from separate
// instrumented runs: without it no CPU has a recorder, and ground_truth()
// is the image registry alone, listing every loaded image with empty
// counters. Asking changes no simulated byte.
//
// Multiprocessor model: scheduling state is sharded per CPU. Each process
// is pinned to the run queue of one CPU at creation (round-robin by PID),
// every CPU has its own kernel context (pid 0) for the swtch/idle paths,
// and a recording CPU records into its own ground-truth shard. RunCpuShard()
// may therefore be called concurrently from one host thread per CPU: the only
// cross-CPU state is the loader-event queue (mutex, cold path) and the
// process-error flag (atomic). Run() drives the same per-CPU shards
// sequentially, interleaving CPUs by least-advanced simulated clock, and
// is bit-identical to the historical single-threaded scheduler for
// num_cpus == 1.

#ifndef SRC_KERNEL_KERNEL_H_
#define SRC_KERNEL_KERNEL_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "src/cpu/cpu.h"
#include "src/kernel/process.h"
#include "src/support/mutex.h"

namespace dcpi {

struct KernelConfig {
  uint32_t num_cpus = 1;
  uint64_t quantum_cycles = 50'000;
  uint64_t seed = 1;  // page-colouring and layout randomization
  // Record per-instruction ground truth (execution counts, head and stall
  // cycles, taken edges). Only the accuracy studies and tests read it;
  // each recording CPU carries a shard of 152 bytes per instruction of
  // every loaded image.
  bool record_ground_truth = false;
};

struct LoaderEvent {
  // kUnloadImage fires once per mapped image when a process exits (the
  // exec/unmap half of the paper's modified-loader hook): the daemon
  // treats it as an image-map change, marks the mapping dead, and — in
  // continuous operation — schedules an epoch roll.
  enum class Kind { kLoadImage, kUnloadImage, kProcessExit };
  Kind kind;
  uint32_t pid = 0;
  std::shared_ptr<const ExecutableImage> image;  // kLoadImage / kUnloadImage
};

class Kernel {
 public:
  explicit Kernel(const KernelConfig& config);

  // Attaches a performance monitor to a CPU (the perfctr subsystem).
  void SetMonitor(uint32_t cpu_index, PerfMonitor* monitor);

  // Creates a process mapping `images` (plus a stack), with the initial PC
  // at procedure `entry_proc` (searched across the images). The process is
  // pinned to a CPU run queue round-robin. Not thread-safe; create all
  // processes before running.
  Result<Process*> CreateProcess(const std::string& name,
                                 std::vector<std::shared_ptr<ExecutableImage>> images,
                                 const std::string& entry_proc);

  // Runs every CPU's shard sequentially (deterministic least-advanced-CPU
  // interleaving) until all work is done or every CPU reaches `max_cycles`.
  // Returns true once every run queue is empty.
  bool Run(uint64_t max_cycles = ~0ull);

  // Runs one CPU's shard until it has no runnable process or the CPU clock
  // reaches `max_cycles`. Returns true once the shard is fully done.
  // Safe to call concurrently for distinct `cpu_index` values.
  bool RunCpuShard(uint32_t cpu_index, uint64_t max_cycles = ~0ull);

  // Releases the address space of every process that ended on
  // `cpu_index` since the last call. Call it from the thread that runs
  // that CPU's shard, or while no shard is running.
  void ReleaseExited(uint32_t cpu_index);

  std::vector<LoaderEvent> DrainLoaderEvents();

  Cpu& cpu(uint32_t index) { return *cpus_[index]; }
  uint32_t num_cpus() const { return static_cast<uint32_t>(cpus_.size()); }
  // Merged machine-wide ground truth: folds the per-CPU recorder shards in
  // before returning. Call only while no CPU shard is running. Without
  // record_ground_truth it is the image registry: images() lists every
  // loaded image (by text base) with empty instructions and edges.
  GroundTruth& ground_truth();
  const std::shared_ptr<const ExecutableImage>& vmunix() const { return vmunix_; }
  const std::vector<std::unique_ptr<Process>>& processes() const { return processes_; }

  // Longest per-CPU clock: the workload's elapsed time.
  uint64_t ElapsedCycles() const;

  // True if any process terminated abnormally (bad PC / bad memory).
  bool HadProcessError() const { return had_error_.load(std::memory_order_relaxed); }

 private:
  void RunKernelProc(uint32_t cpu_index, uint64_t entry_pc);
  // Emits the kUnloadImage events (one per mapped image) plus the
  // kProcessExit event for a terminating process.
  void EmitExitEvents(const Process& process);
  // One scheduling decision on `cpu_index` (swtch path + one quantum).
  // Returns false if the CPU's run queue is empty.
  bool RunOneStep(uint32_t cpu_index);
  Process* NextReady(uint32_t cpu_index);

  KernelConfig config_;
  ImageRegistry registry_;
  GroundTruth ground_truth_;  // merged view; CPUs record into shards
  // One per CPU when recording, none otherwise.
  std::vector<std::unique_ptr<GroundTruth>> truth_shards_;
  std::vector<std::unique_ptr<Cpu>> cpus_;
  std::vector<std::unique_ptr<Process>> processes_;
  std::vector<std::deque<Process*>> run_queues_;  // one shard per CPU
  std::vector<std::vector<Process*>> exited_;     // per CPU, not yet released
  // The loader-event queue is the only cross-CPU kernel state: shard
  // threads append exit events, the simulation loop drains. The lock is a
  // leaf on the kernel side — nothing else is ever acquired under it.
  Mutex loader_mu_{LockRank::kKernelLoader, "kernel.loader"};
  std::vector<LoaderEvent> loader_events_ GUARDED_BY(loader_mu_);
  uint32_t next_pid_ = 1;
  // Sticky failure flag; set (relaxed) by any shard thread on a process
  // fault, read after the shards have joined, so no ordering is needed.
  std::atomic<bool> had_error_{false};

  std::shared_ptr<const ExecutableImage> vmunix_;
  std::vector<std::unique_ptr<Process>> kernel_procs_;  // pid 0, per CPU
  uint64_t idle_entry_ = 0;
  uint64_t swtch_entry_ = 0;
};

}  // namespace dcpi

#endif  // SRC_KERNEL_KERNEL_H_
