// Kernel scheduling and loader tests: quantum-based time sharing,
// fairness across processes, loader events, kernel-code execution on
// context switches, and multiprocessor load distribution.

#include <gtest/gtest.h>

#include "src/isa/assembler.h"
#include "src/kernel/kernel.h"

namespace dcpi {
namespace {

std::shared_ptr<ExecutableImage> SpinImage(const std::string& name, uint64_t base,
                                           int iterations) {
  std::string source = R"(
        .text
        .proc main
        li r9, )" + std::to_string(iterations) + R"(
loop:   subq r9, 1, r9
        bne r9, loop
        halt
        .endp
)";
  return Assemble(name, base, source).value();
}

TEST(KernelSched, RoundRobinInterleavesProcesses) {
  KernelConfig config;
  config.quantum_cycles = 5'000;
  Kernel kernel(config);
  Process* a = kernel.CreateProcess("a", {SpinImage("a", 0x0100'0000, 50'000)}, "main")
                   .value();
  Process* b = kernel.CreateProcess("b", {SpinImage("b", 0x0200'0000, 50'000)}, "main")
                   .value();
  kernel.Run();
  EXPECT_EQ(a->state(), ProcessState::kDone);
  EXPECT_EQ(b->state(), ProcessState::kDone);
  // Both consumed similar CPU (fair round robin on equal work).
  double ratio = static_cast<double>(a->cpu_cycles()) /
                 static_cast<double>(b->cpu_cycles());
  EXPECT_NEAR(ratio, 1.0, 0.2);
  // Context switches happened (quantum << total work).
  EXPECT_GT(kernel.cpu(0).stats().context_switches, 10u);
}

TEST(KernelSched, LoaderEventsCoverImagesAndExits) {
  KernelConfig config;
  Kernel kernel(config);
  auto image = SpinImage("p", 0x0100'0000, 100);
  Process* p = kernel.CreateProcess("p", {image}, "main").value();
  kernel.Run();
  EXPECT_EQ(p->state(), ProcessState::kDone);
  std::vector<LoaderEvent> events = kernel.DrainLoaderEvents();
  bool saw_vmunix = false, saw_image = false, saw_exit = false;
  for (const LoaderEvent& event : events) {
    if (event.kind == LoaderEvent::Kind::kLoadImage) {
      if (event.image->name() == "/vmunix") saw_vmunix = true;
      if (event.image->name() == "p") saw_image = true;
    } else if (event.kind == LoaderEvent::Kind::kProcessExit && event.pid == p->pid()) {
      saw_exit = true;
    }
  }
  EXPECT_TRUE(saw_vmunix);
  EXPECT_TRUE(saw_image);
  EXPECT_TRUE(saw_exit);
  // Drained: a second drain is empty.
  EXPECT_TRUE(kernel.DrainLoaderEvents().empty());
}

TEST(KernelSched, KernelCodeRunsOnSwitches) {
  KernelConfig config;
  config.quantum_cycles = 2'000;
  config.record_ground_truth = true;
  Kernel kernel(config);
  (void)kernel.CreateProcess("p", {SpinImage("p", 0x0100'0000, 100'000)}, "main");
  kernel.Run();
  const ImageTruth* vmunix = kernel.ground_truth().FindImage(kernel.vmunix().get());
  ASSERT_NE(vmunix, nullptr);
  const ProcedureSymbol* swtch = kernel.vmunix()->FindProcedureByName("swtch");
  ASSERT_NE(swtch, nullptr);
  uint64_t swtch_execs =
      vmunix->instructions[(swtch->start - kernel.vmunix()->text_base()) / kInstrBytes]
          .exec_count;
  EXPECT_GT(swtch_execs, 10u);  // once per scheduling decision
}

TEST(KernelSched, MultiCpuSplitsWork) {
  KernelConfig config;
  config.num_cpus = 2;
  Kernel kernel(config);
  for (int i = 0; i < 4; ++i) {
    (void)kernel.CreateProcess(
        "p" + std::to_string(i),
        {SpinImage("p" + std::to_string(i),
                   0x0100'0000 + static_cast<uint64_t>(i) * 0x0010'0000, 40'000)},
        "main");
  }
  kernel.Run();
  // Both CPUs did meaningful work.
  EXPECT_GT(kernel.cpu(0).stats().instructions, 40'000u);
  EXPECT_GT(kernel.cpu(1).stats().instructions, 40'000u);
  // Elapsed wall-clock is roughly half the single-CPU total.
  uint64_t total_instr =
      kernel.cpu(0).stats().instructions + kernel.cpu(1).stats().instructions;
  EXPECT_LT(kernel.ElapsedCycles(), total_instr * 2);
}

TEST(KernelSched, CreateProcessRejectsMissingEntry) {
  Kernel kernel(KernelConfig{});
  auto result =
      kernel.CreateProcess("p", {SpinImage("p", 0x0100'0000, 10)}, "nonexistent");
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
}

TEST(KernelSched, MaxCyclesCapStopsRunaways) {
  KernelConfig config;
  Kernel kernel(config);
  // An infinite loop.
  auto image = Assemble("inf", 0x0100'0000, R"(
        .proc main
loop:   br r31, loop
        .endp
)").value();
  (void)kernel.CreateProcess("inf", {image}, "main");
  kernel.Run(/*max_cycles=*/200'000);
  EXPECT_LE(kernel.ElapsedCycles(), 400'000u);  // bounded (quantum granularity)
}

}  // namespace
}  // namespace dcpi
