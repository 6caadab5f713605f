// Tests for the extensions: dcpidiff profile comparison and the Section 7
// double-sampling (edge samples) prototype.

#include <gtest/gtest.h>

#include "src/perfctr/perf_counters.h"
#include "src/tools/dcpidiff.h"
#include "src/workloads/workloads.h"

namespace dcpi {
namespace {

TEST(Dcpidiff, SortsByAbsoluteDelta) {
  std::vector<ProcedureRow> before(3), after(3);
  before[0] = {"stable", "img", 500, 50.0, 50.0, 0, 0};
  before[1] = {"shrinks", "img", 400, 40.0, 90.0, 0, 0};
  before[2] = {"grows", "img", 100, 10.0, 100.0, 0, 0};
  after[0] = {"stable", "img", 500, 50.0, 50.0, 0, 0};
  after[1] = {"shrinks", "img", 150, 15.0, 65.0, 0, 0};
  after[2] = {"grows", "img", 350, 35.0, 100.0, 0, 0};
  std::vector<DiffRow> rows = DiffProcedures(before, after);
  ASSERT_EQ(rows.size(), 3u);
  // Equal |delta| rows tie-break alphabetically: grows before shrinks.
  EXPECT_EQ(rows[0].procedure, "grows");
  EXPECT_NEAR(rows[0].delta_pct, 25.0, 1e-9);
  EXPECT_EQ(rows[1].procedure, "shrinks");
  EXPECT_NEAR(rows[1].delta_pct, -25.0, 1e-9);
  EXPECT_EQ(rows[2].procedure, "stable");
  std::string text = FormatDiff(rows);
  EXPECT_NE(text.find("shrinks"), std::string::npos);
  EXPECT_NE(text.find("-25.00pp"), std::string::npos);
}

TEST(Dcpidiff, HandlesDisjointProcedureSets) {
  std::vector<ProcedureRow> before(1), after(1);
  before[0] = {"removed", "img", 100, 100.0, 100.0, 0, 0};
  after[0] = {"added", "img", 100, 100.0, 100.0, 0, 0};
  std::vector<DiffRow> rows = DiffProcedures(before, after);
  ASSERT_EQ(rows.size(), 2u);
  for (const DiffRow& row : rows) {
    if (row.procedure == "removed") {
      EXPECT_EQ(row.after_samples, 0u);
      EXPECT_NEAR(row.delta_pct, -100.0, 1e-9);
    } else {
      EXPECT_EQ(row.before_samples, 0u);
      EXPECT_NEAR(row.delta_pct, 100.0, 1e-9);
    }
  }
}

TEST(DoubleSampling, CapturesConsecutiveHeadPcs) {
  PerfCountersConfig config;
  config.counters.push_back({{EventType::kCycles}, 100, 100});
  config.double_sampling = true;
  config.double_sample_cost = 0;
  PerfCounters counters(0, config, nullptr);
  // Alternate between two PCs, 50 cycles apart: every sample pairs one PC
  // with the next.
  uint64_t t = 0;
  for (int i = 0; i < 100; ++i) {
    uint64_t pc = i % 2 == 0 ? 0xA000 : 0xB000;
    counters.OnIssue(1, pc, t + 50);
    t += 50;
  }
  uint64_t ab = 0, ba = 0, other = 0;
  for (const auto& [key, count] : counters.edge_samples()) {
    auto [pid, from, to] = key;
    EXPECT_EQ(pid, 1u);
    if (from == 0xA000 && to == 0xB000) {
      ab += count;
    } else if (from == 0xB000 && to == 0xA000) {
      ba += count;
    } else {
      other += count;
    }
  }
  EXPECT_GT(ab + ba, 40u);  // ~50 samples over 5000 cycles at period 100
  EXPECT_EQ(other, 0u);     // strict alternation: no self pairs
}

TEST(DoubleSampling, EdgeSamplesMatchBranchBias) {
  // End-to-end: a loop whose conditional branch is taken ~75% of the time;
  // the (branch, next PC) pairs should show roughly that bias.
  WorkloadFactory factory(/*scale=*/1.0);
  std::shared_ptr<ExecutableImage> image = factory.Build("bias", R"(
        .text
        .proc main
        li    r9, 60000
        li    r3, 13
        li    r7, 1664525
        li    r8, 1013904223
loop:   mulq  r3, r7, r3
        addq  r3, r8, r3
        srl   r3, 13, r4
        and   r4, 3, r4
        beq   r4, rare       # taken ~25% of the time
        addq  r5, 1, r5
        br    r31, next
rare:   subq  r5, 1, r5
next:   subq  r9, 1, r9
        bne   r9, loop
        halt
        .endp
)");
  Workload workload;
  workload.name = "bias";
  workload.processes.push_back({"bias", {image}, "main"});

  SystemConfig config;
  config.mode = ProfilingMode::kCycles;
  config.period_scale = 1.0 / 64;
  config.free_profiling = true;
  config.double_sampling = true;
  System system(config);
  ASSERT_TRUE(workload.Instantiate(&system).ok());
  SystemResult result = system.Run();
  ASSERT_FALSE(result.had_error);

  // Locate the beq and its two possible successors.
  const ProcedureSymbol* main_proc = image->FindProcedureByName("main");
  uint64_t beq_pc = 0;
  for (uint64_t pc = main_proc->start; pc < main_proc->end; pc += kInstrBytes) {
    auto inst = Decode(*image->InstructionAt(pc));
    if (inst->op == Opcode::kBeq) beq_pc = pc;
  }
  ASSERT_NE(beq_pc, 0u);

  uint64_t taken = 0, fallthrough = 0;
  for (const auto& [key, count] : system.counters(0)->edge_samples()) {
    auto [pid, from, to] = key;
    if (from != beq_pc) continue;
    auto target = Decode(*image->InstructionAt(beq_pc))->BranchTarget(beq_pc);
    if (to >= target) {
      taken += count;  // rare: block at/after the taken target
    } else {
      fallthrough += count;
    }
  }
  ASSERT_GT(taken + fallthrough, 50u);
  double taken_fraction =
      static_cast<double>(taken) / static_cast<double>(taken + fallthrough);
  EXPECT_NEAR(taken_fraction, 0.25, 0.12);
}

}  // namespace
}  // namespace dcpi
