// Workload programs (Table 2).
//
// The paper measures SPEC95, x11perf, McCalpin STREAM, AltaVista, a TPC-D
// style DSS query, parallel SPECfp, and a timesharing mix. We cannot run
// Alpha binaries, so each workload is regenerated as an assembly program
// with the same *character* — the property the experiments actually depend
// on (hash-table eviction rate, cache behaviour, stall mix, FP/int balance,
// number of processes and CPUs):
//
//   mccalpin_*    four STREAM kernels; the copy loop is instruction-for-
//                 instruction the Figure 2 loop (4x unrolled ldq/stq).
//   specfp_like   wave5-style FP program: a dominant parmvr-like kernel,
//                 a conflict-sensitive smooth (board-cache conflicts vary
//                 with page colouring -> Figure 3's variance), fft-like
//                 mid-weight procedures.
//   specint_like  branchy integer code with data-dependent branches and a
//                 pointer chase (gcc flavour); gcc_like runs many separate
//                 invocations (distinct PIDs -> high hash eviction rate).
//   x11perf_like  an X-server-like process mapping three shared libraries
//                 with fill/copy/edge-setup procedures (Figure 1 shape).
//   altavista_like multiprocessor query serving: random probes of a large
//                 in-memory index (memory-latency bound, low variance).
//   dss_like      multiprocessor scan/aggregate over a large table.
//   parallel_specfp the FP program, one process per CPU.
//   timesharing   a mix of everything on a 4-CPU machine.
//   pointer_chase / branch_heavy / icache_stress / imul_fdiv_stress
//                 single-cause microworkloads used by culprit-analysis
//                 tests and ablations.

#ifndef SRC_WORKLOADS_WORKLOADS_H_
#define SRC_WORKLOADS_WORKLOADS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/isa/assembler.h"
#include "src/isa/image.h"
#include "src/sim/system.h"

namespace dcpi {

struct ProcessSpec {
  std::string name;
  std::vector<std::shared_ptr<ExecutableImage>> images;
  std::string entry_proc;
};

struct Workload {
  std::string name;
  std::string description;
  uint32_t num_cpus = 1;
  std::vector<ProcessSpec> processes;

  // Instantiates all processes into a system.
  Status Instantiate(System* system) const;
};

enum class StreamKernel { kCopy, kScale, kSum, kTriad };

// Builds workloads. `scale` multiplies iteration counts (1.0 = default
// sizes, tuned so single-process workloads run tens of millions of cycles).
class WorkloadFactory {
 public:
  explicit WorkloadFactory(double scale = 1.0, uint64_t seed = 1);

  Workload McCalpin(StreamKernel kernel);
  Workload SpecFpLike();
  Workload SpecIntLike();
  Workload GccLike(int invocations = 12);
  Workload X11PerfLike();
  Workload AltaVistaLike(uint32_t num_cpus = 4);
  Workload DssLike(uint32_t num_cpus = 8);
  Workload ParallelSpecFp(uint32_t num_cpus = 4);
  Workload Timesharing(uint32_t num_cpus = 4);

  // Single-cause microworkloads.
  Workload PointerChase();
  Workload BranchHeavy();
  Workload IcacheStress();
  Workload ImulFdivStress();
  Workload WriteBufferStress();

  // Planted false sharing for the memory-sampling tools: one process per
  // CPU, each read-modify-writing its own 8-byte slot of a single shared
  // 64-byte line (no data is logically shared), plus a 64-byte-strided
  // private control region that a correct detector must not flag.
  Workload FalseSharing(uint32_t num_cpus = 4);

  // The Table 2/3 suite (uniprocessor + multiprocessor rows).
  std::vector<Workload> Table2Suite();

  // Builds an image, aborting on invalid assembly (workload sources are
  // compiled-in and must be valid).
  std::shared_ptr<ExecutableImage> Build(const std::string& name,
                                         const std::string& source,
                                         const ExternSymbols* externs = nullptr);

  // The first scale error: a scaled iteration count that is not a number
  // or exceeds kMaxLiValue, the largest constant the `li` that loads it
  // can hold. Such a count is built as 1, so the image still assembles,
  // but the workload is not the one asked for. Callers that take the
  // scale from a user check this after building.
  const Status& status() const { return status_; }

 private:
  uint64_t NextBase();
  uint64_t Iters(uint64_t base_count);

  double scale_;
  uint64_t seed_;
  uint64_t next_base_ = 0x0100'0000;
  Status status_;
};

}  // namespace dcpi

#endif  // SRC_WORKLOADS_WORKLOADS_H_
