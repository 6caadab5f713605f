// CPU timing-model tests using a minimal in-memory ExecContext: issue
// grouping, operand latencies, functional-unit occupancy, branch
// prediction costs, write-buffer pressure, and head-cycle accounting.

#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <map>

#include "src/cpu/cpu.h"
#include "src/isa/assembler.h"

namespace dcpi {
namespace {

// Flat test context: identity translation, one image, dense memory map.
class FlatContext : public ExecContext {
 public:
  explicit FlatContext(std::shared_ptr<ExecutableImage> image)
      : image_(std::move(image)) {
    for (uint32_t word : image_->text()) {
      decoded_.emplace_back(Decode(word).value_or(DecodedInst{}));
    }
    regs_.pc = image_->text_base();
  }

  uint32_t pid() const override { return 1; }
  RegFile& regs() override { return regs_; }
  bool LoadData(uint64_t vaddr, unsigned size, uint64_t* out) override {
    uint64_t value = 0;
    for (unsigned i = 0; i < size; ++i) {
      value |= static_cast<uint64_t>(memory_[vaddr + i]) << (8 * i);
    }
    *out = value;
    return true;
  }
  bool StoreData(uint64_t vaddr, unsigned size, uint64_t value) override {
    for (unsigned i = 0; i < size; ++i) {
      memory_[vaddr + i] = static_cast<uint8_t>(value >> (8 * i));
    }
    return true;
  }
  uint64_t Translate(uint64_t vaddr) override { return vaddr; }
  TextWindow FetchText(uint64_t pc) override {
    if (!image_->ContainsPc(pc)) return TextWindow();
    return TextWindow{image_->text_base(), image_->text_end(), decoded_.data()};
  }

 private:
  std::shared_ptr<ExecutableImage> image_;
  std::vector<PredecodedInst> decoded_;
  RegFile regs_;
  std::map<uint64_t, uint8_t> memory_;
};

struct RunOutcome {
  RunResult result;
  uint64_t cycles;
  std::shared_ptr<ExecutableImage> image;
  std::unique_ptr<GroundTruth> truth;
};

RunOutcome RunProgram(const std::string& source, CpuConfig config = CpuConfig()) {
  RunOutcome outcome;
  auto image = Assemble("timing", 0x0100'0000, source);
  EXPECT_TRUE(image.ok()) << image.status().ToString();
  outcome.image = image.value();
  outcome.truth = std::make_unique<GroundTruth>();
  outcome.truth->AddImage(outcome.image);
  FlatContext ctx(outcome.image);
  Cpu cpu(0, config);
  cpu.set_ground_truth(outcome.truth.get());
  outcome.result = cpu.Run(ctx, 100'000'000);
  outcome.cycles = cpu.now();
  return outcome;
}

TEST(CpuTiming, IndependentIntOpsDualIssue) {
  // 1000 iterations of 2 independent adds + loop control: with dual issue
  // the loop body is ~2 cycles + branch, so << 4 cycles per iteration.
  RunOutcome out = RunProgram(R"(
        li r9, 1000
loop:   addq r1, 1, r1
        addq r2, 1, r2
        subq r9, 1, r9
        bne r9, loop
        halt
)");
  EXPECT_EQ(out.result.reason, ExitReason::kHalted);
  double per_iter = static_cast<double>(out.cycles) / 1000.0;
  EXPECT_LT(per_iter, 3.5);
  EXPECT_GE(per_iter, 1.5);
}

TEST(CpuTiming, DependentChainSerializes) {
  // The same ops but forming a dependence chain cannot dual-issue.
  RunOutcome fast = RunProgram(R"(
        li r9, 1000
loop:   addq r1, 1, r1
        addq r2, 1, r2
        addq r3, 1, r3
        addq r4, 1, r4
        subq r9, 1, r9
        bne r9, loop
        halt
)");
  RunOutcome slow = RunProgram(R"(
        li r9, 1000
loop:   addq r1, 1, r1
        addq r1, 1, r1
        addq r1, 1, r1
        addq r1, 1, r1
        subq r9, 1, r9
        bne r9, loop
        halt
)");
  EXPECT_GT(static_cast<double>(slow.cycles), 1.15 * static_cast<double>(fast.cycles));
}

TEST(CpuTiming, ImulOccupancySlowsBackToBackMultiplies) {
  RunOutcome muls = RunProgram(R"(
        li r9, 500
loop:   mulq r1, 3, r2
        mulq r3, 3, r4
        subq r9, 1, r9
        bne r9, loop
        halt
)");
  // Two independent multiplies per iteration, but the multiplier accepts
  // one every imul_repeat (8) cycles: >= 16 cycles per iteration.
  EXPECT_GT(muls.cycles, 500u * 15);
}

TEST(CpuTiming, FdivIsNotPipelined) {
  RunOutcome divs = RunProgram(R"(
        li r9, 100
loop:   divt f1, f2, f3
        divt f4, f2, f5
        subq r9, 1, r9
        bne r9, loop
        halt
)");
  // Two divides per iteration at fdiv_repeat=30: >= 60 cycles each.
  EXPECT_GT(divs.cycles, 100u * 58);
}

TEST(CpuTiming, LoadUseLatencyVisible) {
  // A dependent load-use chain pays the 2-cycle hit latency per link once
  // the line is cached.
  RunOutcome out = RunProgram(R"(
        lia r1, cell
        stq r1, 0(r1)       # cell points to itself
        li r9, 2000
loop:   ldq r1, 0(r1)
        subq r9, 1, r9
        bne r9, loop
        halt
        .data
cell:   .quad 0
)");
  // >= 2 cycles per iteration from the load-to-use latency.
  EXPECT_GT(out.cycles, 2000u * 2 - 100);
}

TEST(CpuTiming, MispredictsCostMoreThanPredictable) {
  const char* predictable = R"(
        li r9, 4000
        bis r31, r31, r3
loop:   and r9, 0, r4       # always zero: branch never taken
        beq r4, skip
        addq r3, 1, r3
skip:   subq r9, 1, r9
        bne r9, loop
        halt
)";
  const char* unpredictable = R"(
        li r9, 4000
        li r3, 98765
        li r7, 1664525
        li r8, 1013904223
loop:   mulq r3, r7, r3
        addq r3, r8, r3
        srl r3, 13, r4
        and r4, 1, r4
        beq r4, skip
        addq r5, 1, r5
skip:   subq r9, 1, r9
        bne r9, loop
        halt
)";
  RunOutcome fast = RunProgram(predictable);
  RunOutcome slow = RunProgram(unpredictable);
  // Normalize by instruction counts (the unpredictable loop is longer).
  double fast_cpi = static_cast<double>(fast.cycles) /
                    static_cast<double>(fast.result.instructions);
  double slow_cpi = static_cast<double>(slow.cycles) /
                    static_cast<double>(slow.result.instructions);
  EXPECT_GT(slow_cpi, fast_cpi + 0.2);
}

TEST(CpuTiming, WriteBufferOverflowThrottlesStoreStreams) {
  // Stores to distinct lines of a huge array: six write-buffer entries
  // with slow drains throttle the stream far below 1 store/cycle.
  RunOutcome out = RunProgram(R"(
        lia r1, arr
        li r9, 4000
loop:   stq r9, 0(r1)
        lda r1, 64(r1)
        subq r9, 1, r9
        bne r9, loop
        halt
        .data
        .align 8192
arr:    .space 300000
)");
  EXPECT_GT(out.cycles, 4000u * 5);
  const ImageTruth* truth = out.truth->FindImage(out.image.get());
  uint64_t wb_stalls = 0;
  for (const auto& instr : truth->instructions) {
    wb_stalls += instr.stall_cycles[static_cast<int>(StallCause::kWriteBuffer)];
  }
  EXPECT_GT(wb_stalls, 1000u);
}

TEST(CpuTiming, HeadCyclesPartitionTotalTime) {
  // Invariant: total head cycles summed over instructions equals the
  // elapsed cycles (every cycle is attributed to exactly one head).
  RunOutcome out = RunProgram(R"(
        li r9, 300
        li r3, 7
loop:   mulq r3, r3, r4
        ldq r5, 0(r1)       # r1=0? give it a valid address first
        subq r9, 1, r9
        bne r9, loop
        halt
)");
  // Note: the ldq above loads address 0 which FlatContext accepts.
  const ImageTruth* truth = out.truth->FindImage(out.image.get());
  uint64_t head_total = 0;
  for (const auto& instr : truth->instructions) head_total += instr.head_cycles;
  EXPECT_NEAR(static_cast<double>(head_total), static_cast<double>(out.cycles),
              static_cast<double>(out.cycles) * 0.02);
}

TEST(CpuTiming, QuantumExpiresAndResumesCleanly) {
  auto image = Assemble("timing", 0x0100'0000, R"(
        li r9, 100000
loop:   subq r9, 1, r9
        bne r9, loop
        halt
)");
  ASSERT_TRUE(image.ok());
  FlatContext ctx(image.value());
  Cpu cpu(0, CpuConfig{});
  RunResult first = cpu.Run(ctx, 10'000);
  EXPECT_EQ(first.reason, ExitReason::kQuantumExpired);
  // Resume to completion.
  RunResult rest = cpu.Run(ctx, 1'000'000'000);
  EXPECT_EQ(rest.reason, ExitReason::kHalted);
  EXPECT_EQ(ctx.regs().ReadInt(9), 0);
}

TEST(CpuTiming, LdaAndLdahWrapToInt64Min) {
  // lda and ldah add in two's complement like the hardware: one past
  // INT64_MAX wraps to INT64_MIN rather than overflowing a signed add.
  auto image = Assemble("timing", 0x0100'0000, R"(
        li   r1, -1
        srl  r1, 1, r1        # INT64_MAX
        lda  r2, 1(r1)
        srl  r1, 16, r3
        sll  r3, 16, r3       # INT64_MAX with its low 16 bits clear
        ldah r4, 1(r3)
        halt
)");
  ASSERT_TRUE(image.ok()) << image.status().ToString();
  FlatContext ctx(image.value());
  Cpu cpu(0, CpuConfig{});
  EXPECT_EQ(cpu.Run(ctx, 1'000'000).reason, ExitReason::kHalted);
  EXPECT_EQ(ctx.regs().ReadInt(2), std::numeric_limits<int64_t>::min());
  EXPECT_EQ(ctx.regs().ReadInt(4), std::numeric_limits<int64_t>::min());
}

TEST(CpuTiming, BadPcStopsExecution) {
  auto image = Assemble("timing", 0x0100'0000, "br r31, outside\noutside: nop\n");
  // Jump off the end of the image by running past the last instruction.
  FlatContext ctx(image.value());
  Cpu cpu(0, CpuConfig{});
  RunResult result = cpu.Run(ctx, 1'000'000);
  EXPECT_EQ(result.reason, ExitReason::kBadPc);
}

}  // namespace
}  // namespace dcpi
