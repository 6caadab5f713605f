// Process release: a System frees an exited process's address space at
// the next quiesce point, so a long-running System holds pages only for
// the processes still alive. The Process objects stay, so their state and
// counters remain readable.
//
// Every check counts backing-page bytes (AddressSpace::touched_bytes), not
// host RSS, so the suite holds under any ctest -j and under sanitizers.
// scripts/check.sh runs it under TSan, where the threaded cases release on
// the per-CPU worker threads, and under ASan, where a memo still pointing
// into a freed page would be a use-after-free.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "src/isa/assembler.h"
#include "src/sim/system.h"
#include "src/workloads/workloads.h"
#include "tests/scratch_dir.h"

namespace dcpi {
namespace {

struct ReleaseCase {
  const char* name;
  uint32_t cpus;
  bool threaded;
  ProfilingMode mode;
};

// Names each case in the test listing (ctest shows it as the suffix).
void PrintTo(const ReleaseCase& c, std::ostream* os) { *os << c.name; }

SystemConfig ReleaseConfig(const ReleaseCase& c, const std::string& db_root = "") {
  SystemConfig config;
  config.kernel.num_cpus = c.cpus;
  config.threaded_collection = c.threaded;
  config.mode = c.mode;
  config.period_scale = 1.0 / 16;
  config.free_profiling = true;
  config.db_root = db_root;
  config.roll_on_map_change = true;
  return config;
}

// Bytes of backing pages the System's processes hold. Every process that
// has ended must hold none.
uint64_t RetainedBytes(System& system) {
  uint64_t total = 0;
  for (const auto& process : system.kernel().processes()) {
    if (process->state() == ProcessState::kDone) {
      EXPECT_EQ(process->aspace().touched_bytes(), 0u)
          << process->name() << " (pid " << process->pid() << ") exited but holds pages";
    }
    total += process->aspace().touched_bytes();
  }
  return total;
}

std::shared_ptr<ExecutableImage> MustAssemble(const std::string& name, uint64_t base,
                                              const std::string& source) {
  Result<std::shared_ptr<ExecutableImage>> image = Assemble(name, base, source);
  EXPECT_TRUE(image.ok()) << image.status().ToString();
  return image.value();
}

// Stores a sentinel in its data page, spins for `iters` iterations, and
// reads the sentinel back. If the page did not survive the quiesce points
// in between, the process ends with a bad-memory error: released storage
// is unmapped, and a fresh page would read 0.
std::shared_ptr<ExecutableImage> SentinelImage(const std::string& name, uint64_t base,
                                               uint64_t iters) {
  return MustAssemble(name, base, R"(
        .text
        .proc main
        lia   r1, cell
        li    r2, 12345
        stq   r2, 0(r1)
        li    r3, )" + std::to_string(iters) + R"(
spin:
        subq  r3, 1, r3
        bne   r3, spin
        ldq   r4, 0(r1)
        subq  r4, r2, r4
        bne   r4, corrupt
        halt
corrupt:
        ldq   r5, 0(r31)
        halt
        .endp
        .data
cell:   .quad 0
)");
}

class ProcessRelease : public ::testing::TestWithParam<ReleaseCase> {};

TEST_P(ProcessRelease, ContinuousEpochsHoldNoExitedPages) {
  // Sixteen continuous epochs, each a fresh instantiation of the workload
  // run to completion with rolls at the map changes: what the System holds
  // after epoch 16 is what it held after epoch 4.
  ScratchDir scratch;
  WorkloadFactory factory(/*scale=*/0.01);
  Workload workload = factory.GccLike(2 * GetParam().cpus);
  System system(ReleaseConfig(GetParam(), scratch.path() + "/db"));
  uint64_t after_epoch_4 = 0;
  for (int epoch = 1; epoch <= 16; ++epoch) {
    ASSERT_TRUE(workload.Instantiate(&system).ok());
    SystemResult result = system.Run();
    ASSERT_FALSE(result.had_error) << "epoch " << epoch;
    uint64_t retained = RetainedBytes(system);
    if (epoch == 4) after_epoch_4 = retained;
  }
  EXPECT_EQ(system.kernel().processes().size(), 16 * workload.processes.size());
  EXPECT_EQ(RetainedBytes(system), after_epoch_4);
  EXPECT_TRUE(system.SealCurrentEpoch().ok());
}

TEST_P(ProcessRelease, LiveProcessKeepsPagesAcrossCappedSegments) {
  // One brief and one long process per CPU. Capped segments end while the
  // long ones run: the brief ones are released at the first quiesce point,
  // the long ones keep their pages until they halt, and the sentinel each
  // reads back proves its data page survived every quiesce point.
  const ReleaseCase& c = GetParam();
  System system(ReleaseConfig(c));
  std::vector<Process*> brief, live;
  for (uint32_t cpu = 0; cpu < c.cpus; ++cpu) {
    uint64_t base = 0x0100'0000 + cpu * 0x20'0000ull;
    Result<Process*> b = system.AddProcess(
        "brief", {SentinelImage("brief" + std::to_string(cpu), base, 100)}, "main");
    Result<Process*> l = system.AddProcess(
        "live", {SentinelImage("live" + std::to_string(cpu), base + 0x10'0000, 300'000)},
        "main");
    ASSERT_TRUE(b.ok() && l.ok());
    brief.push_back(b.value());
    live.push_back(l.value());
  }
  int capped_segments = 0;
  while (live[0]->state() != ProcessState::kDone) {
    SystemResult result = system.Run(system.kernel().ElapsedCycles() + 100'000);
    ASSERT_FALSE(result.had_error);
    RetainedBytes(system);
    for (Process* process : brief) EXPECT_EQ(process->state(), ProcessState::kDone);
    for (Process* process : live) {
      if (process->state() != ProcessState::kDone) {
        EXPECT_GT(process->aspace().touched_bytes(), 0u);
      }
    }
    ++capped_segments;
  }
  EXPECT_GT(capped_segments, 1);
  SystemResult result = system.Run();
  EXPECT_FALSE(result.had_error);
  EXPECT_EQ(RetainedBytes(system), 0u);
}

TEST_P(ProcessRelease, FaultingProcessesAreReleased) {
  // A bad-memory exit and a bad-PC exit take the same release path as a
  // halt, after touching their data and stack pages.
  const ReleaseCase& c = GetParam();
  System system(ReleaseConfig(c));
  std::shared_ptr<ExecutableImage> bad_memory = MustAssemble("bad_memory", 0x0100'0000, R"(
        .text
        .proc main
        lia   r1, cell
        stq   r1, 0(r1)
        stq   r1, -8(r30)
        ldq   r2, 0(r31)
        halt
        .endp
        .data
cell:   .quad 0
)");
  std::shared_ptr<ExecutableImage> bad_pc = MustAssemble("bad_pc", 0x0110'0000, R"(
        .text
        .proc main
        lia   r1, cell
        stq   r1, 0(r1)
        stq   r1, -8(r30)
        li    r2, 64
        jmp   r31, (r2)
        .endp
        .data
cell:   .quad 0
)");
  std::vector<Process*> processes;
  for (uint32_t i = 0; i < 2 * c.cpus; ++i) {
    Result<Process*> process = system.AddProcess(
        "faulty", {i % 2 == 0 ? bad_memory : bad_pc}, "main");
    ASSERT_TRUE(process.ok());
    EXPECT_GT(process.value()->aspace().touched_bytes(), 0u);
    processes.push_back(process.value());
  }
  SystemResult result = system.Run();
  EXPECT_TRUE(result.had_error);
  for (Process* process : processes) {
    EXPECT_EQ(process->state(), ProcessState::kDone);
    EXPECT_EQ(process->aspace().touched_bytes(), 0u);
    EXPECT_GT(process->instructions(), 0u);
  }
  // Released storage is unmapped, so a stray access to a page the
  // process had touched fails instead of reaching freed or fresh storage.
  uint64_t value = 0;
  uint64_t cell = bad_memory->DataSymbolAddress("cell").value();
  EXPECT_FALSE(processes[0]->aspace().Load(cell, 8, &value));
  EXPECT_FALSE(processes[0]->aspace().Store(cell, 8, 1));
  EXPECT_EQ(processes[0]->aspace().touched_bytes(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Modes, ProcessRelease,
    ::testing::Values(ReleaseCase{"Sequential1Cpu", 1, false, ProfilingMode::kCycles},
                      ReleaseCase{"Threaded2Cpu", 2, true, ProfilingMode::kDefault},
                      ReleaseCase{"Threaded4Cpu", 4, true, ProfilingMode::kCycles},
                      ReleaseCase{"Base1Cpu", 1, false, ProfilingMode::kBase},
                      ReleaseCase{"Base4Cpu", 4, true, ProfilingMode::kBase}));

TEST(ProcessRelease, BaseModeKeepsNoLoaderEvents) {
  // Without a daemon the loader events (each holding its image) are
  // dropped at every quiesce point instead of piling up in the kernel.
  WorkloadFactory factory(/*scale=*/0.01);
  Workload workload = factory.GccLike(2);
  SystemConfig config;
  config.mode = ProfilingMode::kBase;
  System system(config);
  for (int run = 0; run < 2; ++run) {
    ASSERT_TRUE(workload.Instantiate(&system).ok());
    EXPECT_FALSE(system.Run().had_error);
  }
  EXPECT_TRUE(system.kernel().DrainLoaderEvents().empty());
}

}  // namespace
}  // namespace dcpi
