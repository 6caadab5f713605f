// Verification-library tests: image lint on good and deliberately broken
// images, CFG structural verification (including corrupted graphs), the
// differential cycle-equivalence checker against >= 1000 random CFGs, flow
// conservation, schedule invariants, and an end-to-end dcpicheck run over
// the Figure 7 copy workload's profile database.

#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <vector>

#include "src/check/cfg_verify.h"
#include "src/check/cycle_equiv_oracle.h"
#include "src/check/dcpicheck.h"
#include "src/check/flow_check.h"
#include "src/check/image_lint.h"
#include "src/check/schedule_check.h"
#include "src/check/selfcheck.h"
#include "src/isa/assembler.h"
#include "src/isa/image_io.h"
#include "src/workloads/workloads.h"
#include "tests/scratch_dir.h"
#include "tests/testgen.h"

namespace dcpi {
namespace {

struct Built {
  std::shared_ptr<ExecutableImage> image;
  const ProcedureSymbol* proc = nullptr;
  Cfg cfg;
  std::vector<BlockSchedule> schedules;
};

Built BuildFor(const std::string& source, const char* proc_name,
               uint64_t base = 0x0100'0000) {
  Built built;
  built.image = Assemble("t", base, source).value();
  built.proc = built.image->FindProcedureByName(proc_name);
  built.cfg = Cfg::Build(*built.image, *built.proc).value();
  PipelineModel model;
  for (const BasicBlock& block : built.cfg.blocks()) {
    std::vector<DecodedInst> instrs;
    for (uint64_t pc = block.start_pc; pc < block.end_pc; pc += kInstrBytes) {
      instrs.push_back(*Decode(*built.image->InstructionAt(pc)));
    }
    built.schedules.push_back(ScheduleBlock(model, instrs));
  }
  return built;
}

// Diamond with a loop; every read register is initialized (lints clean).
constexpr char kCleanDiamondSource[] = R"(
        .text
        .proc diamond
        li   r1, 7
        li   r3, 0
        li   r9, 64
head:   addq r1, 1, r1
        and  r1, 1, r2
        beq  r2, arm_b
        addq r3, 1, r3
        br   r31, join
arm_b:  subq r3, 1, r3
join:   subq r9, 1, r9
        bne  r9, head
        halt
        .endp
)";

// ---- CheckReport -----------------------------------------------------------

TEST(CheckReport, CountsSeveritiesAndFormats) {
  CheckReport report;
  EXPECT_TRUE(report.ok());
  EXPECT_TRUE(report.empty());
  CheckViolation& v = report.AddViolation(CheckPass::kCfgVerify,
                                          CheckSeverity::kError, "bad edge");
  v.image = "app";
  v.proc = "loop";
  v.pc = 0x10010;
  v.block = 2;
  report.AddViolation(CheckPass::kImageLint, CheckSeverity::kWarning, "meh");
  EXPECT_FALSE(report.ok());
  EXPECT_EQ(report.num_errors(), 1u);
  EXPECT_EQ(report.num_warnings(), 1u);
  EXPECT_EQ(report.CountFor(CheckPass::kCfgVerify), 1u);
  EXPECT_EQ(report.CountFor(CheckPass::kFlowConserve), 0u);
  std::string text = report.ToString();
  EXPECT_NE(text.find("1 error(s), 1 warning(s)"), std::string::npos);
  EXPECT_NE(text.find("[cfg-verify] error app!loop @0x10010 block 2: bad edge"),
            std::string::npos);

  CheckReport other;
  other.AddViolation(CheckPass::kSchedule, CheckSeverity::kError, "x");
  report.Merge(other);
  EXPECT_EQ(report.num_errors(), 2u);
}

// ---- Pass 1: image lint ----------------------------------------------------

TEST(ImageLint, CleanImagePasses) {
  Built built = BuildFor(kCleanDiamondSource, "diamond");
  CheckReport report;
  LintImage(*built.image, &report);
  EXPECT_TRUE(report.empty()) << report.ToString();
}

TEST(ImageLint, NeverWrittenRegisterReadIsReported) {
  // r5 and r6 are read but nothing in the image ever writes them; r7 is
  // only ever a destination. Each read is reported once per (proc, reg),
  // not once per instruction.
  Built built = BuildFor(R"(
        .text
        .proc f
        addq r5, r6, r7
        subq r5, r6, r7
        ret  r31, (r26)
        .endp
)",
                         "f");
  CheckReport report;
  LintImage(*built.image, &report);
  EXPECT_FALSE(report.ok());
  EXPECT_EQ(report.CountFor(CheckPass::kImageLint), 2u) << report.ToString();
  EXPECT_NE(report.ToString().find("reads r5"), std::string::npos);
  EXPECT_NE(report.ToString().find("reads r6"), std::string::npos);

  // The same reads downgrade to warnings for hand-built fixtures.
  CheckReport lenient;
  ImageLintOptions options;
  options.never_written_read_is_error = false;
  LintImage(*built.image, &lenient, options);
  EXPECT_TRUE(lenient.ok());
  EXPECT_EQ(lenient.num_warnings(), 2u);
}

TEST(ImageLint, FallthroughOffProcedureEndIsAnError) {
  CheckReport report;
  Built built = BuildFor(R"(
        .text
        .proc f
        li   r1, 1
        addq r1, 1, r2
        .endp
)",
                         "f");
  LintImage(*built.image, &report);
  EXPECT_FALSE(report.ok());
  EXPECT_NE(report.ToString().find("falls through the end"), std::string::npos);
}

TEST(ImageLint, FallthroughIntoNextProcedureIsOnlyAWarning) {
  CheckReport report;
  Built built = BuildFor(R"(
        .text
        .proc init
        li   r1, 4
        .endp
        .proc loop
l:      subq r1, 1, r1
        bne  r1, l
        halt
        .endp
)",
                         "init");
  LintImage(*built.image, &report);
  EXPECT_TRUE(report.ok()) << report.ToString();
  EXPECT_EQ(report.num_warnings(), 1u);
  EXPECT_NE(report.ToString().find("falls through into procedure loop"),
            std::string::npos);
}

TEST(ImageLint, UnreachableCodeIsAWarning) {
  CheckReport report;
  Built built = BuildFor(R"(
        .text
        .proc f
        li   r1, 1
        br   r31, end
        addq r1, 1, r2
        addq r1, 2, r3
end:    halt
        .endp
)",
                         "f");
  LintImage(*built.image, &report);
  EXPECT_TRUE(report.ok()) << report.ToString();
  EXPECT_GE(report.num_warnings(), 1u);
  EXPECT_NE(report.ToString().find("unreachable code"), std::string::npos);
}

TEST(ImageLint, BranchTargetOutsideImageIsAnError) {
  Built built = BuildFor(kCleanDiamondSource, "diamond");
  // Overwrite the halt with a branch far past the text section.
  DecodedInst far_branch;
  far_branch.op = Opcode::kBr;
  far_branch.ra = kZeroReg;
  far_branch.disp = 4096;
  built.image->SetInstruction(built.image->num_instructions() - 1,
                              Encode(far_branch));
  CheckReport report;
  LintImage(*built.image, &report);
  EXPECT_FALSE(report.ok());
  EXPECT_NE(report.ToString().find("target outside the image"),
            std::string::npos);
}

// ---- Pass 2: CFG verification ---------------------------------------------

TEST(CfgVerify, BuiltCfgsPassFixtures) {
  Built built = BuildFor(kCleanDiamondSource, "diamond");
  CheckReport report;
  VerifyCfg(built.cfg, *built.image, *built.proc, &report);
  EXPECT_TRUE(report.empty()) << report.ToString();
}

TEST(CfgVerify, CorruptedGraphsAreRejected) {
  Built built = BuildFor(kCleanDiamondSource, "diamond");
  uint64_t start = built.cfg.proc_start();
  uint64_t end = built.cfg.proc_end();

  {  // Edge target out of range.
    std::vector<BasicBlock> blocks = built.cfg.blocks();
    std::vector<CfgEdge> edges = built.cfg.edges();
    edges[0].to = 99;
    CheckReport report;
    VerifyCfgStructure(blocks, edges, start, end, &report);
    EXPECT_FALSE(report.ok());
    EXPECT_NE(report.ToString().find("not exit or a valid block"),
              std::string::npos);
  }
  {  // Gap between blocks: they no longer partition the procedure.
    std::vector<BasicBlock> blocks = built.cfg.blocks();
    std::vector<CfgEdge> edges = built.cfg.edges();
    blocks[1].start_pc += kInstrBytes;
    CheckReport report;
    VerifyCfgStructure(blocks, edges, start, end, &report);
    EXPECT_FALSE(report.ok());
    EXPECT_NE(report.ToString().find("partition"), std::string::npos);
  }
  {  // Adjacency list drops an edge.
    std::vector<BasicBlock> blocks = built.cfg.blocks();
    std::vector<CfgEdge> edges = built.cfg.edges();
    ASSERT_FALSE(blocks[0].out_edges.empty());
    blocks[0].out_edges.pop_back();
    CheckReport report;
    VerifyCfgStructure(blocks, edges, start, end, &report);
    EXPECT_FALSE(report.ok());
  }
  {  // Block the entry cannot reach.
    std::vector<BasicBlock> blocks = built.cfg.blocks();
    std::vector<CfgEdge> edges = built.cfg.edges();
    // Rewire every in-edge of block 1 to point at block 0 instead.
    for (CfgEdge& e : edges) {
      if (e.to == 1) e.to = 0;
    }
    for (BasicBlock& b : blocks) b.in_edges.clear();
    for (const CfgEdge& e : edges) {
      if (e.to >= 0) blocks[e.to].in_edges.push_back(e.id);
    }
    CheckReport report;
    VerifyCfgStructure(blocks, edges, start, end, &report);
    EXPECT_NE(report.ToString().find("entry does not reach"),
              std::string::npos);
  }
}

// ---- Pass 3: differential cycle equivalence --------------------------------

TEST(DifferentialCycleEquiv, RandomMultigraphsMatchOracle) {
  SplitMix64 rng(0xfeedface);
  const int kTrials = 1200;
  for (int trial = 0; trial < kTrials; ++trial) {
    testgen::RandomGraph graph = testgen::RandomMultigraph(rng, trial, kTrials);
    CheckReport report;
    ASSERT_TRUE(DiffCycleEquivalence(graph.num_nodes, graph.edges,
                                     "trial " + std::to_string(trial), &report))
        << report.ToString();
  }
}

// The acceptance bar: the bracket-list classes the estimator records agree
// with the brute-force oracle on >= 1000 random CFGs built through the real
// assembler and CFG builder. The same loop verifies CFG structure and
// schedule invariants — three passes, one corpus.
TEST(DifferentialCycleEquiv, ThousandRandomCfgsMatchOracle) {
  SplitMix64 rng(0x5eed);
  const int kTrials = 1000;
  for (int trial = 0; trial < kTrials; ++trial) {
    int num_blocks = 2 + static_cast<int>(rng.NextBelow(
                             testgen::Ramp(trial, kTrials, 1, 8)));
    std::string source = testgen::RandomProcedureSource(rng, num_blocks, "rnd");
    Built built = BuildFor(source, "rnd");
    CheckReport report;
    VerifyCfg(built.cfg, *built.image, *built.proc, &report);
    CheckProcedureSchedules(built.cfg, *built.image, *built.proc,
                            built.schedules, &report);
    ASSERT_EQ(report.num_errors(), 0u)
        << "trial " << trial << "\n"
        << source << report.ToString();

    size_t n = (built.cfg.proc_end() - built.cfg.proc_start()) / kInstrBytes;
    FrequencyResult freq = EstimateFrequencies(
        built.cfg, built.schedules, std::vector<uint64_t>(n, 7), 100.0);
    ASSERT_TRUE(CheckCfgCycleEquivalence(built.cfg, freq, &report))
        << "trial " << trial << "\n"
        << source << report.ToString();
  }
}

TEST(DifferentialCycleEquiv, BrokenClassesAreCaught) {
  Built built = BuildFor(kCleanDiamondSource, "diamond");
  size_t n = (built.cfg.proc_end() - built.cfg.proc_start()) / kInstrBytes;
  FrequencyResult freq = EstimateFrequencies(
      built.cfg, built.schedules, std::vector<uint64_t>(n, 7), 100.0);
  {
    CheckReport report;
    ASSERT_TRUE(CheckCfgCycleEquivalence(built.cfg, freq, &report))
        << report.ToString();
  }

  // A JPP bug that *merges* classes: pretend the two diamond arms execute
  // together.
  int head = built.cfg.BlockIndexFor(built.cfg.proc_start());
  int arm_a = -1;
  for (size_t b = 0; b < built.cfg.blocks().size(); ++b) {
    if (freq.block_class[b] != freq.block_class[head]) {
      arm_a = static_cast<int>(b);
      break;
    }
  }
  ASSERT_GE(arm_a, 0);
  FrequencyResult merged = freq;
  merged.block_class[arm_a] = merged.block_class[head];
  CheckReport merged_report;
  EXPECT_FALSE(CheckCfgCycleEquivalence(built.cfg, merged, &merged_report));
  EXPECT_FALSE(merged_report.ok());

  // A JPP bug that *splits* a class: the head block leaves the class it
  // shares with the join block.
  FrequencyResult split = freq;
  split.block_class[head] = 999;
  CheckReport split_report;
  EXPECT_FALSE(CheckCfgCycleEquivalence(built.cfg, split, &split_report));
  EXPECT_FALSE(split_report.ok());
}

// ---- Pass 4: flow conservation ---------------------------------------------

// Fabricates a flow-consistent FrequencyResult for the clean diamond, then
// breaks one edge.
TEST(FlowConservation, ConsistentFlowPassesBrokenFlowFails) {
  Built built = BuildFor(kCleanDiamondSource, "diamond");
  const Cfg& cfg = built.cfg;
  // Walk the diamond structurally (pseudo-ops like li expand to multiple
  // instructions, so pc arithmetic would be brittle).
  auto succ = [&](int b, bool fallthrough) {
    for (int eid : cfg.blocks()[b].out_edges) {
      const CfgEdge& e = cfg.edges()[eid];
      if (e.fallthrough == fallthrough) return e.to;
    }
    return kCfgExit;
  };
  int pre = -1;
  for (const CfgEdge& e : cfg.edges()) {
    if (e.from == kCfgEntry) pre = e.to;
  }
  ASSERT_GE(pre, 0);
  int head = succ(pre, true);
  int arm_a = succ(head, true);   // beq falls through into the first arm
  int arm_b = succ(head, false);  // and branches into the second
  int join = succ(arm_a, false);  // the br at the end of arm_a
  int tail = succ(join, true);
  ASSERT_GE(head, 0);
  ASSERT_GE(arm_a, 0);
  ASSERT_GE(arm_b, 0);
  ASSERT_GE(join, 0);
  ASSERT_GE(tail, 0);

  FrequencyResult freq;
  freq.block_freq.assign(cfg.blocks().size(), 0);
  freq.block_conf.assign(cfg.blocks().size(), Confidence::kHigh);
  freq.edge_freq.assign(cfg.edges().size(), 0);
  freq.edge_conf.assign(cfg.edges().size(), Confidence::kHigh);
  freq.block_class.assign(cfg.blocks().size(), -1);
  freq.edge_class.assign(cfg.edges().size(), -1);

  auto set_block = [&](int b, double f) { freq.block_freq[b] = f; };
  set_block(pre, 10);
  set_block(head, 1000);
  set_block(arm_a, 600);
  set_block(arm_b, 400);
  set_block(join, 1000);
  set_block(tail, 10);
  for (const CfgEdge& e : cfg.edges()) {
    double f = 0;
    if (e.from == kCfgEntry) {
      f = 10;  // entry -> pre
    } else if (e.from == pre) {
      f = 10;
    } else if (e.from == head) {
      f = e.fallthrough ? 600 : 400;  // fallthrough arm_a, taken arm_b
    } else if (e.from == arm_a || e.from == arm_b) {
      f = freq.block_freq[e.from];
    } else if (e.from == join) {
      f = e.fallthrough ? 10 : 990;  // taken = back edge to head
    } else if (e.from == tail) {
      f = 10;
    }
    freq.edge_freq[e.id] = f;
  }
  // head inflow: entry-side 10 + back edge 990 = 1000. OK.
  CheckReport clean;
  EXPECT_TRUE(CheckFlowConservation(cfg, freq, /*period=*/50.0, &clean))
      << clean.ToString();
  EXPECT_TRUE(clean.empty());

  // Break one arm's frequency: head outflow and arm inflow both blow up.
  FrequencyResult broken = freq;
  for (const CfgEdge& e : cfg.edges()) {
    if (e.from == head && e.fallthrough) broken.edge_freq[e.id] = 100;
  }
  CheckReport report;
  EXPECT_FALSE(CheckFlowConservation(cfg, broken, 50.0, &report));
  EXPECT_GE(report.num_errors(), 1u);
  EXPECT_NE(report.ToString().find("does not match block frequency"),
            std::string::npos);
  // Violations carry block provenance.
  EXPECT_GE(report.violations()[0].block, 0);

  // Low-confidence participants are skipped, not misreported.
  FrequencyResult lowconf = broken;
  lowconf.block_conf.assign(cfg.blocks().size(), Confidence::kLow);
  CheckReport quiet;
  EXPECT_TRUE(CheckFlowConservation(cfg, lowconf, 50.0, &quiet));
  EXPECT_TRUE(quiet.empty());
}

// ---- Pass 5: schedule invariants -------------------------------------------

TEST(ScheduleCheck, RealSchedulesPassMutatedSchedulesFail) {
  Built built = BuildFor(kCleanDiamondSource, "diamond");
  CheckReport clean;
  EXPECT_TRUE(CheckProcedureSchedules(built.cfg, *built.image, *built.proc,
                                      built.schedules, &clean))
      << clean.ToString();

  // Pick a block with at least two instructions.
  int target = -1;
  for (size_t b = 0; b < built.schedules.size(); ++b) {
    if (built.schedules[b].instrs.size() >= 2) {
      target = static_cast<int>(b);
      break;
    }
  }
  ASSERT_GE(target, 0);

  {  // M inconsistent with issue cycles (and with total_cycles).
    std::vector<BlockSchedule> broken = built.schedules;
    broken[target].instrs[1].m += 1;
    CheckReport report;
    EXPECT_FALSE(CheckProcedureSchedules(built.cfg, *built.image, *built.proc,
                                         broken, &report));
  }
  {  // Illegal stall reason: an FU dependency on a plain ALU op.
    std::vector<BlockSchedule> broken = built.schedules;
    StaticInstr& si = broken[target].instrs[1];
    si.stall = StaticStallKind::kFuDependency;
    si.stall_cycles = 1;
    si.culprit = 0;
    CheckReport report;
    EXPECT_FALSE(CheckProcedureSchedules(built.cfg, *built.image, *built.proc,
                                         broken, &report));
    EXPECT_NE(report.ToString().find("illegal"), std::string::npos);
  }
  {  // Culprit pointing forward.
    std::vector<BlockSchedule> broken = built.schedules;
    StaticInstr& si = broken[target].instrs[1];
    si.stall = StaticStallKind::kSlotting;
    si.stall_cycles = 1;
    si.culprit = 7;
    CheckReport report;
    EXPECT_FALSE(CheckProcedureSchedules(built.cfg, *built.image, *built.proc,
                                         broken, &report));
    EXPECT_NE(report.ToString().find("earlier instruction"), std::string::npos);
  }
}

// ---- End to end: dcpicheck over the Figure 7 copy workload -----------------

// Collects the copy workload into <root>/db (one epoch, 0) and saves its
// image to <root>/copy.img; returns options naming both.
DcpicheckOptions CollectCopy(const std::string& root) {
  WorkloadFactory factory(/*scale=*/0.5);
  Workload workload = factory.McCalpin(StreamKernel::kCopy);
  SystemConfig config;
  config.kernel.num_cpus = 1;
  config.mode = ProfilingMode::kCycles;
  config.period_scale = 1.0 / 16;
  config.free_profiling = true;
  config.db_root = root + "/db";
  System system(config);
  EXPECT_TRUE(workload.Instantiate(&system).ok());
  SystemResult result = system.Run();
  EXPECT_FALSE(result.had_error);
  EXPECT_EQ(system.database()->current_epoch(), 0u);

  DcpicheckOptions options;
  options.db_root = config.db_root;
  options.image_files = {root + "/copy.img"};
  EXPECT_TRUE(SaveImage(*workload.processes[0].images[0], options.image_files[0]).ok());
  return options;
}

TEST(Dcpicheck, CopyWorkloadDatabaseIsViolationFree) {
  ScratchDir scratch;
  DcpicheckOptions options = CollectCopy(scratch.path());
  options.epochs = {0};
  CheckReport report = RunDcpicheck(options);
  EXPECT_TRUE(report.empty()) << report.ToString();
}

// An empty epoch list checks no epoch: the report holds the image lint
// and one warning, and nothing is analyzed or cached.
TEST(Dcpicheck, EmptyEpochListAnalyzesNothing) {
  ScratchDir scratch;
  DcpicheckOptions options = CollectCopy(scratch.path());
  CheckReport report = RunDcpicheck(options);
  EXPECT_EQ(report.num_errors(), 0u);
  ASSERT_EQ(report.num_warnings(), 1u) << report.ToString();
  EXPECT_NE(report.ToString().find("none of the requested epochs"), std::string::npos)
      << report.ToString();
  EXPECT_FALSE(std::filesystem::exists(options.db_root + "/epoch_0/.cache"));
}

// Self-check through the analyzer facade: the flag routes the verification
// report into the analysis result.
TEST(Dcpicheck, SelfcheckFlagFillsReport) {
  Built built = BuildFor(kCleanDiamondSource, "diamond");
  ImageProfile cycles("t", EventType::kCycles, 100.0);
  for (size_t i = 0; i < built.image->num_instructions(); ++i) {
    cycles.AddSamples(i * kInstrBytes, 5);
  }
  AnalysisConfig config;
  config.selfcheck = true;
  Result<ProcedureAnalysis> analysis = AnalyzeProcedureChecked(
      *built.image, *built.proc, cycles, nullptr, nullptr, nullptr, nullptr,
      config);
  ASSERT_TRUE(analysis.ok()) << analysis.status().ToString();
  EXPECT_EQ(analysis.value().selfcheck_report.num_errors(), 0u)
      << analysis.value().selfcheck_report.ToString();

  config.selfcheck = false;
  Result<ProcedureAnalysis> plain = AnalyzeProcedureChecked(
      *built.image, *built.proc, cycles, nullptr, nullptr, nullptr, nullptr,
      config);
  ASSERT_TRUE(plain.ok());
  EXPECT_TRUE(plain.value().selfcheck_report.empty());
}

}  // namespace
}  // namespace dcpi
