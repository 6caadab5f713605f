// Analysis subsystem tests: CFG construction, static scheduling against the
// paper's Figure 7 values, frequency estimation against simulator ground
// truth, and culprit identification on single-cause workloads.

#include <gtest/gtest.h>

#include "src/analysis/analyzer.h"
#include "src/isa/assembler.h"
#include "src/workloads/workloads.h"

namespace dcpi {
namespace {

// The Figure 2 / Figure 7 copy loop, as a standalone procedure.
constexpr char kCopyLoopSource[] = R"(
        .text
        .proc copy
loop:
        ldq   r4, 0(r1)
        addq  r0, 4, r0
        ldq   r5, 8(r1)
        ldq   r6, 16(r1)
        ldq   r7, 24(r1)
        lda   r1, 32(r1)
        stq   r4, 0(r2)
        cmpult r0, r3, r4
        stq   r5, 8(r2)
        stq   r6, 16(r2)
        stq   r7, 24(r2)
        lda   r2, 32(r2)
        bne   r4, loop
        ret   r31, (r26)
        .endp
)";

std::shared_ptr<ExecutableImage> MustAssemble(const std::string& source) {
  auto result = Assemble("test", 0x0100'0000, source);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return result.value();
}

TEST(StaticSchedule, CopyLoopMatchesFigure7) {
  auto image = MustAssemble(kCopyLoopSource);
  const ProcedureSymbol* proc = image->FindProcedureByName("copy");
  ASSERT_NE(proc, nullptr);
  Result<Cfg> cfg = Cfg::Build(*image, *proc);
  ASSERT_TRUE(cfg.ok()) << cfg.status().ToString();

  // The loop body is the first block (13 instructions ending at bne).
  const BasicBlock& body = cfg.value().blocks()[0];
  ASSERT_EQ(body.num_instructions(), 13u);

  PipelineModel model;
  std::vector<DecodedInst> instrs;
  for (uint64_t pc = body.start_pc; pc < body.end_pc; pc += kInstrBytes) {
    instrs.push_back(*Decode(*image->InstructionAt(pc)));
  }
  BlockSchedule schedule = ScheduleBlock(model, instrs);

  // Figure 7's M column: 1 0 1 0 1 0 1 0 1 1 1 0 1, total 8 cycles.
  const uint64_t kExpectedM[13] = {1, 0, 1, 0, 1, 0, 1, 0, 1, 1, 1, 0, 1};
  for (int i = 0; i < 13; ++i) {
    EXPECT_EQ(schedule.instrs[i].m, kExpectedM[i]) << "instruction " << i;
  }
  EXPECT_EQ(schedule.total_cycles, 8u);

  // Best-case CPI 8/13 = 0.62 (Figure 2's header line).
  EXPECT_NEAR(static_cast<double>(schedule.total_cycles) / 13.0, 0.62, 0.01);

  // The adjacent stores at indices 9 and 10 are slotting hazards.
  EXPECT_EQ(schedule.instrs[9].stall, StaticStallKind::kSlotting);
  EXPECT_EQ(schedule.instrs[10].stall, StaticStallKind::kSlotting);
}

TEST(CfgBuild, CopyLoopShape) {
  auto image = MustAssemble(kCopyLoopSource);
  const ProcedureSymbol* proc = image->FindProcedureByName("copy");
  Result<Cfg> cfg = Cfg::Build(*image, *proc);
  ASSERT_TRUE(cfg.ok());
  // Two blocks: the loop body and the ret.
  ASSERT_EQ(cfg.value().blocks().size(), 2u);
  EXPECT_FALSE(cfg.value().missing_edges());
  // Edges: entry->0, 0->0 (taken), 0->1 (fallthrough), 1->exit.
  int back_edges = 0, fallthrough = 0, exit_edges = 0, entry_edges = 0;
  for (const CfgEdge& e : cfg.value().edges()) {
    if (e.from == kCfgEntry) ++entry_edges;
    if (e.to == kCfgExit) ++exit_edges;
    if (e.from == 0 && e.to == 0) ++back_edges;
    if (e.fallthrough) ++fallthrough;
  }
  EXPECT_EQ(entry_edges, 1);
  EXPECT_EQ(exit_edges, 1);
  EXPECT_EQ(back_edges, 1);
  EXPECT_EQ(fallthrough, 1);
}

TEST(CfgBuild, CallsDoNotEndBlocks) {
  const char* source = R"(
        .text
        .proc caller
        li    r1, 3
        bsr   r26, helper
        addq  r1, 1, r1
        ret   r31, (r26)
        .endp
        .proc helper
        ret   r31, (r26)
        .endp
)";
  auto image = MustAssemble(source);
  Result<Cfg> cfg = Cfg::Build(*image, *image->FindProcedureByName("caller"));
  ASSERT_TRUE(cfg.ok());
  EXPECT_EQ(cfg.value().blocks().size(), 1u);  // the bsr is mid-block
}

TEST(CfgBuild, IndirectJumpResolvedThroughLiaPair) {
  const char* source = R"(
        .text
        .proc jumpy
        lia   r5, target
        jmp   r31, (r5)
        addq  r1, 1, r1
target:
        ret   r31, (r26)
        .endp
)";
  auto image = MustAssemble(source);
  Result<Cfg> cfg = Cfg::Build(*image, *image->FindProcedureByName("jumpy"));
  ASSERT_TRUE(cfg.ok());
  EXPECT_FALSE(cfg.value().missing_edges());
  // There must be an edge from the jmp block to the target block.
  const Cfg& graph = cfg.value();
  uint64_t target_pc = graph.proc_start() + 4 * kInstrBytes;  // after lia(2)+jmp+addq
  int target_block = graph.BlockIndexFor(target_pc);
  bool found = false;
  for (const CfgEdge& e : graph.edges()) {
    if (e.to == target_block && e.from == 0) found = true;
  }
  EXPECT_TRUE(found);
}

// Runs a workload with dense CYCLES sampling and returns the system plus
// image for analysis-vs-ground-truth comparisons.
struct AnalyzedRun {
  std::unique_ptr<System> system;
  Workload workload;
};

AnalyzedRun RunWorkload(Workload workload, double period_scale = 1.0 / 32,
                        ProfilingMode mode = ProfilingMode::kCycles) {
  AnalyzedRun run;
  SystemConfig config;
  config.kernel.record_ground_truth = true;  // estimates are scored against it
  config.mode = mode;
  config.period_scale = period_scale;
  config.free_profiling = true;  // densified sampling must not distort timing
  run.system = std::make_unique<System>(config);
  EXPECT_TRUE(workload.Instantiate(run.system.get()).ok());
  SystemResult result = run.system->Run();
  EXPECT_FALSE(result.had_error);
  run.workload = std::move(workload);
  return run;
}

TEST(FrequencyEstimation, CopyLoopFrequencyWithinTolerance) {
  WorkloadFactory factory(/*scale=*/0.25);
  AnalyzedRun run = RunWorkload(factory.McCalpin(StreamKernel::kCopy));
  auto image = run.workload.processes[0].images[0];
  const ImageProfile* cycles =
      run.system->daemon()->FindProfile("mccalpin_copy", EventType::kCycles);
  ASSERT_NE(cycles, nullptr);

  const ProcedureSymbol* proc = image->FindProcedureByName("mccalpin_copy");
  AnalysisConfig config;
  auto analysis =
      AnalyzeProcedure(*image, *proc, *cycles, nullptr, nullptr, nullptr, nullptr, config);
  ASSERT_TRUE(analysis.ok()) << analysis.status().ToString();

  // Compare estimated frequency of the unrolled loop's ldq with the true
  // execution count.
  const ImageTruth* truth = run.system->kernel().ground_truth().FindImage(image.get());
  ASSERT_NE(truth, nullptr);
  // Per the Section 6.1.3 discussion, a fully memory-saturated loop is the
  // hard case (every issue point carries some dynamic stall), so the
  // estimate may run high; it must stay within ~45%.
  for (const InstructionAnalysis& ia : analysis.value().instructions) {
    if (ia.inst.op != Opcode::kLdq) continue;
    uint64_t index = (ia.pc - image->text_base()) / kInstrBytes;
    double true_count = static_cast<double>(truth->instructions[index].exec_count);
    if (true_count < 1000) continue;
    EXPECT_NEAR(ia.frequency / true_count, 1.0, 0.45) << "pc " << std::hex << ia.pc;
  }
}

TEST(FrequencyEstimation, BranchyCodeBlocksWithinTolerance) {
  WorkloadFactory factory(/*scale=*/0.5);
  AnalyzedRun run = RunWorkload(factory.BranchHeavy());
  auto image = run.workload.processes[0].images[0];
  const ImageProfile* cycles =
      run.system->daemon()->FindProfile("branchy", EventType::kCycles);
  ASSERT_NE(cycles, nullptr);
  const ProcedureSymbol* proc = image->FindProcedureByName("main");
  AnalysisConfig config;
  auto analysis =
      AnalyzeProcedure(*image, *proc, *cycles, nullptr, nullptr, nullptr, nullptr, config);
  ASSERT_TRUE(analysis.ok());

  // Compare the sample-weighted median ratio: robust against tiny
  // single-instruction conditional blocks, which absorb the whole
  // mispredict penalty (the overestimation mode Section 6.2 reports for
  // gcc's small classes).
  const ImageTruth* truth = run.system->kernel().ground_truth().FindImage(image.get());
  std::vector<double> ratios;
  for (const InstructionAnalysis& ia : analysis.value().instructions) {
    uint64_t index = (ia.pc - image->text_base()) / kInstrBytes;
    double true_count = static_cast<double>(truth->instructions[index].exec_count);
    if (true_count < 20000 || ia.frequency <= 0) continue;
    ratios.push_back(ia.frequency / true_count);
  }
  ASSERT_GT(ratios.size(), 5u);
  std::sort(ratios.begin(), ratios.end());
  double median = ratios[ratios.size() / 2];
  EXPECT_NEAR(median, 1.0, 0.4);  // every issue point carries mispredict stall
}

TEST(CulpritAnalysis, CopyLoopStoresBlameMemorySystem) {
  WorkloadFactory factory(/*scale=*/0.25);
  AnalyzedRun run = RunWorkload(factory.McCalpin(StreamKernel::kCopy));
  auto image = run.workload.processes[0].images[0];
  const ImageProfile* cycles =
      run.system->daemon()->FindProfile("mccalpin_copy", EventType::kCycles);
  const ProcedureSymbol* proc = image->FindProcedureByName("mccalpin_copy");
  AnalysisConfig config;
  auto analysis =
      AnalyzeProcedure(*image, *proc, *cycles, nullptr, nullptr, nullptr, nullptr, config);
  ASSERT_TRUE(analysis.ok());

  // Find the most-stalled store; it must list D-cache, write-buffer, and
  // DTB culprits (the Figure 2 "dwD" bubble).
  const InstructionAnalysis* worst = nullptr;
  for (const InstructionAnalysis& ia : analysis.value().instructions) {
    if (!ia.inst.IsStore()) continue;
    if (worst == nullptr || ia.dynamic_stall > worst->dynamic_stall) worst = &ia;
  }
  ASSERT_NE(worst, nullptr);
  EXPECT_GT(worst->dynamic_stall, 1.0);
  EXPECT_TRUE(worst->culprits[static_cast<int>(CulpritKind::kWriteBuffer)]);
  EXPECT_TRUE(worst->culprits[static_cast<int>(CulpritKind::kDcache)]);
  EXPECT_TRUE(worst->culprits[static_cast<int>(CulpritKind::kDtb)]);
  // The D-cache culprit points at a load.
  EXPECT_NE(worst->dcache_culprit_pc, 0u);
}

TEST(CulpritAnalysis, SummaryPercentagesAreCoherent) {
  WorkloadFactory factory(/*scale=*/0.25);
  AnalyzedRun run = RunWorkload(factory.McCalpin(StreamKernel::kCopy));
  auto image = run.workload.processes[0].images[0];
  const ImageProfile* cycles =
      run.system->daemon()->FindProfile("mccalpin_copy", EventType::kCycles);
  const ProcedureSymbol* proc = image->FindProcedureByName("mccalpin_copy");
  AnalysisConfig config;
  auto analysis =
      AnalyzeProcedure(*image, *proc, *cycles, nullptr, nullptr, nullptr, nullptr, config);
  ASSERT_TRUE(analysis.ok());
  const StallSummary& summary = analysis.value().summary;
  for (int c = 0; c < kNumCulpritKinds; ++c) {
    EXPECT_GE(summary.dynamic_max_pct[c], summary.dynamic_min_pct[c]);
    EXPECT_GE(summary.dynamic_min_pct[c], 0.0);
  }
  EXPECT_GE(summary.execution_pct, 0.0);
  EXPECT_LE(summary.execution_pct, 110.0);
  // Memory-bound loop: the actual CPI far exceeds the best case.
  EXPECT_GT(analysis.value().actual_cpi, 2 * analysis.value().best_case_cpi);
}

}  // namespace
}  // namespace dcpi
