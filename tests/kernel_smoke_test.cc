// End-to-end smoke tests: assemble small programs, run them on the
// simulated machine through the kernel, and check both semantics and
// timing-model invariants.

#include <gtest/gtest.h>

#include "src/isa/assembler.h"
#include "src/kernel/kernel.h"

namespace dcpi {
namespace {

std::shared_ptr<ExecutableImage> MustAssemble(const std::string& name, uint64_t base,
                                              const std::string& source) {
  auto result = Assemble(name, base, source);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return result.value();
}

TEST(KernelSmoke, SumLoopComputesAndHalts) {
  const char* source = R"(
        .text
        .proc main
        li    r1, 0          # sum
        li    r2, 100        # counter
loop:
        addq  r1, r2, r1
        subq  r2, 1, r2
        bne   r2, loop
        lia   r3, result
        stq   r1, 0(r3)
        halt
        .endp
        .data
result: .quad 0
)";
  auto image = MustAssemble("sum", 0x0100'0000, source);
  KernelConfig config;
  Kernel kernel(config);
  auto process = kernel.CreateProcess("sum", {image}, "main");
  ASSERT_TRUE(process.ok()) << process.status().ToString();
  kernel.Run();
  EXPECT_FALSE(kernel.HadProcessError());
  EXPECT_EQ(process.value()->state(), ProcessState::kDone);

  uint64_t value = 0;
  uint64_t addr = image->DataSymbolAddress("result").value();
  ASSERT_TRUE(process.value()->aspace().Load(addr, 8, &value));
  EXPECT_EQ(value, 5050u);  // 1 + 2 + ... + 100
}

TEST(KernelSmoke, GroundTruthCountsLoopIterations) {
  const char* source = R"(
        .text
        .proc main
        li    r2, 1000
loop:
        subq  r2, 1, r2
        bne   r2, loop
        halt
        .endp
)";
  auto image = MustAssemble("loop", 0x0100'0000, source);
  KernelConfig config;
  config.record_ground_truth = true;
  Kernel kernel(config);
  auto process = kernel.CreateProcess("loop", {image}, "main");
  ASSERT_TRUE(process.ok());
  kernel.Run();
  ASSERT_FALSE(kernel.HadProcessError());

  const ImageTruth* truth = kernel.ground_truth().FindImage(image.get());
  ASSERT_NE(truth, nullptr);
  const ProcedureSymbol* main_proc = image->FindProcedureByName("main");
  ASSERT_NE(main_proc, nullptr);
  // The subq at index 2 (after the two-instruction li) runs 1000 times.
  uint64_t subq_index = 2;
  EXPECT_EQ(truth->instructions[subq_index].exec_count, 1000u);
  // The bne is taken 999 times: one back edge with count 999.
  uint64_t loop_off = subq_index * kInstrBytes;
  auto edge = truth->edges.find({loop_off + kInstrBytes, loop_off});
  ASSERT_NE(edge, truth->edges.end());
  EXPECT_EQ(edge->second, 999u);
}

TEST(KernelSmoke, FloatingPointPipelineWorks) {
  const char* source = R"(
        .text
        .proc main
        lia   r1, vec
        ldt   f1, 0(r1)
        ldt   f2, 8(r1)
        addt  f1, f2, f3
        mult  f1, f2, f4
        divt  f4, f2, f5
        subt  f5, f1, f6     # should be ~0
        stt   f3, 16(r1)
        stt   f6, 24(r1)
        halt
        .endp
        .data
vec:    .double 2.5, 4.0
        .space 16
)";
  auto image = MustAssemble("fp", 0x0100'0000, source);
  KernelConfig config;
  Kernel kernel(config);
  auto process = kernel.CreateProcess("fp", {image}, "main");
  ASSERT_TRUE(process.ok());
  kernel.Run();
  ASSERT_FALSE(kernel.HadProcessError());

  uint64_t addr = image->DataSymbolAddress("vec").value();
  uint64_t bits = 0;
  ASSERT_TRUE(process.value()->aspace().Load(addr + 16, 8, &bits));
  double sum;
  memcpy(&sum, &bits, 8);
  EXPECT_DOUBLE_EQ(sum, 6.5);
  ASSERT_TRUE(process.value()->aspace().Load(addr + 24, 8, &bits));
  double near_zero;
  memcpy(&near_zero, &bits, 8);
  EXPECT_NEAR(near_zero, 0.0, 1e-12);
}

TEST(KernelSmoke, ProcedureCallAndReturn) {
  const char* source = R"(
        .text
        .proc main
        li    r1, 7
        bsr   r26, double_it
        lia   r3, out
        stq   r1, 0(r3)
        halt
        .endp
        .proc double_it
        addq  r1, r1, r1
        ret   r31, (r26)
        .endp
        .data
out:    .quad 0
)";
  auto image = MustAssemble("call", 0x0100'0000, source);
  KernelConfig config;
  Kernel kernel(config);
  auto process = kernel.CreateProcess("call", {image}, "main");
  ASSERT_TRUE(process.ok());
  kernel.Run();
  ASSERT_FALSE(kernel.HadProcessError());
  uint64_t value = 0;
  uint64_t addr = image->DataSymbolAddress("out").value();
  ASSERT_TRUE(process.value()->aspace().Load(addr, 8, &value));
  EXPECT_EQ(value, 14u);
}

TEST(KernelSmoke, LoadWhoseAddressWrapsFaults) {
  // Effective addresses wrap modulo 2^64. The wrapped address is unmapped,
  // so the load ends the process with an error instead of reading memory:
  // both when base + displacement wraps (INT64_MAX + 8) and when the eight
  // bytes at 2^64 - 4 run past the top of the address space.
  const char* sources[] = {
      R"(
        .text
        .proc main
        li    r1, -1
        srl   r1, 1, r1
        ldq   r2, 8(r1)
        halt
        .endp
)",
      R"(
        .text
        .proc main
        lda   r1, -4(r31)
        ldq   r2, 0(r1)
        halt
        .endp
)",
  };
  for (const char* source : sources) {
    auto image = MustAssemble("wrap", 0x0100'0000, source);
    Kernel kernel(KernelConfig{});
    auto process = kernel.CreateProcess("wrap", {image}, "main");
    ASSERT_TRUE(process.ok()) << process.status().ToString();
    kernel.Run();
    EXPECT_TRUE(kernel.HadProcessError()) << source;
    EXPECT_EQ(process.value()->state(), ProcessState::kDone) << source;
  }
}

TEST(KernelSmoke, MultiCpuRunsAllProcesses) {
  const char* source = R"(
        .text
        .proc main
        li    r2, 5000
loop:
        subq  r2, 1, r2
        bne   r2, loop
        halt
        .endp
)";
  KernelConfig config;
  config.num_cpus = 4;
  config.record_ground_truth = true;
  Kernel kernel(config);
  std::vector<Process*> procs;
  for (int i = 0; i < 8; ++i) {
    auto image = MustAssemble("p" + std::to_string(i),
                              0x0100'0000 + static_cast<uint64_t>(i) * 0x10'0000, source);
    auto process = kernel.CreateProcess("p" + std::to_string(i), {image}, "main");
    ASSERT_TRUE(process.ok());
    procs.push_back(process.value());
  }
  kernel.Run();
  EXPECT_FALSE(kernel.HadProcessError());
  for (Process* p : procs) EXPECT_EQ(p->state(), ProcessState::kDone);
  // The kernel image saw context switches on every CPU.
  const ImageTruth* vmunix = kernel.ground_truth().FindImage(kernel.vmunix().get());
  ASSERT_NE(vmunix, nullptr);
  uint64_t kernel_instrs = 0;
  for (const auto& t : vmunix->instructions) kernel_instrs += t.exec_count;
  EXPECT_GT(kernel_instrs, 0u);
}

}  // namespace
}  // namespace dcpi
