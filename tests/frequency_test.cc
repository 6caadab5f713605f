// Frequency-estimation unit tests on synthetic CFGs and sample vectors:
// equivalence-class grouping, ratio clustering, the few-samples fallback,
// flow-constraint propagation, and confidence labels.

#include <gtest/gtest.h>

#include "src/analysis/analyzer.h"
#include "src/isa/assembler.h"
#include "src/support/rng.h"
#include "tests/testgen.h"

namespace dcpi {
namespace {

struct Built {
  std::shared_ptr<ExecutableImage> image;
  Cfg cfg;
  std::vector<BlockSchedule> schedules;
};

Built BuildFor(const char* source, const char* proc_name) {
  Built built;
  built.image = Assemble("t", 0x0100'0000, source).value();
  const ProcedureSymbol* proc = built.image->FindProcedureByName(proc_name);
  built.cfg = Cfg::Build(*built.image, *proc).value();
  for (const BasicBlock& block : built.cfg.blocks()) {
    std::vector<DecodedInst> instrs;
    for (uint64_t pc = block.start_pc; pc < block.end_pc; pc += kInstrBytes) {
      instrs.push_back(*Decode(*built.image->InstructionAt(pc)));
    }
    built.schedules.push_back(ScheduleBlock(instrs));
  }
  return built;
}

// A diamond: entry block, then/else arms, join block with a loop back to
// the entry (so everything is on cycles).
constexpr char kDiamondSource[] = R"(
        .text
        .proc diamond
head:   addq r1, 1, r1
        and  r1, 1, r2
        beq  r2, arm_b
        addq r3, 1, r3
        addq r3, 2, r3
        br   r31, join
arm_b:  subq r3, 1, r3
        subq r3, 2, r3
        subq r3, 3, r3
join:   subq r9, 1, r9
        bne  r9, head
        ret  r31, (r26)
        .endp
)";

TEST(FrequencyEquivalence, DiamondArmsSeparateFromHeadAndJoin) {
  Built built = BuildFor(kDiamondSource, "diamond");
  ASSERT_EQ(built.cfg.blocks().size(), 5u);  // head, arm_a, arm_b, join, ret
  std::vector<uint64_t> samples(
      (built.cfg.proc_end() - built.cfg.proc_start()) / kInstrBytes, 10);
  FrequencyResult result =
      EstimateFrequencies(built.cfg, built.schedules, samples, 100.0);
  // Head and join execute together; the arms do not.
  int head = built.cfg.BlockIndexFor(built.cfg.proc_start());
  int join = built.cfg.BlockIndexFor(built.cfg.proc_start() + 9 * kInstrBytes);
  int arm_a = built.cfg.BlockIndexFor(built.cfg.proc_start() + 3 * kInstrBytes);
  int arm_b = built.cfg.BlockIndexFor(built.cfg.proc_start() + 6 * kInstrBytes);
  EXPECT_EQ(result.block_class[head], result.block_class[join]);
  EXPECT_NE(result.block_class[arm_a], result.block_class[head]);
  EXPECT_NE(result.block_class[arm_a], result.block_class[arm_b]);
}

TEST(FrequencyEstimation, CleanSamplesRecoverFrequencyExactly) {
  Built built = BuildFor(kDiamondSource, "diamond");
  // Fabricate stall-free samples: S_i = F/period * M_i with F_head=1000,
  // F_arm_a = 600, F_arm_b = 400 (flow-consistent).
  double period = 50.0;
  size_t n = (built.cfg.proc_end() - built.cfg.proc_start()) / kInstrBytes;
  std::vector<uint64_t> samples(n, 0);
  auto fill_block = [&](int b, double freq) {
    const BasicBlock& block = built.cfg.blocks()[b];
    size_t first = (block.start_pc - built.cfg.proc_start()) / kInstrBytes;
    for (size_t k = 0; k < block.num_instructions(); ++k) {
      samples[first + k] = static_cast<uint64_t>(
          freq / period * static_cast<double>(built.schedules[b].instrs[k].m));
    }
  };
  int head = built.cfg.BlockIndexFor(built.cfg.proc_start());
  int arm_a = built.cfg.BlockIndexFor(built.cfg.proc_start() + 3 * kInstrBytes);
  int arm_b = built.cfg.BlockIndexFor(built.cfg.proc_start() + 6 * kInstrBytes);
  int join = built.cfg.BlockIndexFor(built.cfg.proc_start() + 9 * kInstrBytes);
  fill_block(head, 100000);
  fill_block(arm_a, 60000);
  fill_block(arm_b, 40000);
  fill_block(join, 100000);

  FrequencyResult result =
      EstimateFrequencies(built.cfg, built.schedules, samples, period);
  EXPECT_NEAR(result.block_freq[head], 100000, 100000 * 0.02);
  EXPECT_NEAR(result.block_freq[arm_a], 60000, 60000 * 0.05);
  EXPECT_NEAR(result.block_freq[arm_b], 40000, 40000 * 0.05);
  EXPECT_NEAR(result.block_freq[join], 100000, 100000 * 0.02);
}

TEST(FrequencyEstimation, PropagationFillsEdgesFromFlowConstraints) {
  Built built = BuildFor(kDiamondSource, "diamond");
  double period = 50.0;
  size_t n = (built.cfg.proc_end() - built.cfg.proc_start()) / kInstrBytes;
  std::vector<uint64_t> samples(n, 0);
  auto fill_block = [&](int b, double freq) {
    const BasicBlock& block = built.cfg.blocks()[b];
    size_t first = (block.start_pc - built.cfg.proc_start()) / kInstrBytes;
    for (size_t k = 0; k < block.num_instructions(); ++k) {
      samples[first + k] = static_cast<uint64_t>(
          freq / period * static_cast<double>(built.schedules[b].instrs[k].m));
    }
  };
  int head = built.cfg.BlockIndexFor(built.cfg.proc_start());
  int arm_a = built.cfg.BlockIndexFor(built.cfg.proc_start() + 3 * kInstrBytes);
  int arm_b = built.cfg.BlockIndexFor(built.cfg.proc_start() + 6 * kInstrBytes);
  fill_block(head, 100000);
  fill_block(arm_a, 70000);
  fill_block(arm_b, 30000);
  fill_block(built.cfg.BlockIndexFor(built.cfg.proc_start() + 9 * kInstrBytes), 100000);
  FrequencyResult result =
      EstimateFrequencies(built.cfg, built.schedules, samples, period);
  // Edge frequencies around the arms must reflect the 70/30 split.
  for (const CfgEdge& edge : built.cfg.edges()) {
    if (edge.to == arm_a) EXPECT_NEAR(result.edge_freq[edge.id], 70000, 5000);
    if (edge.to == arm_b) EXPECT_NEAR(result.edge_freq[edge.id], 30000, 5000);
  }
}

TEST(FrequencyEstimation, FewSamplesFallsBackToAggregateRatio) {
  Built built = BuildFor(kDiamondSource, "diamond");
  size_t n = (built.cfg.proc_end() - built.cfg.proc_start()) / kInstrBytes;
  std::vector<uint64_t> samples(n, 1);  // nearly nothing
  FrequencyResult result =
      EstimateFrequencies(built.cfg, built.schedules, samples, 100.0);
  int head = built.cfg.BlockIndexFor(built.cfg.proc_start());
  EXPECT_EQ(result.block_conf[head], Confidence::kLow);
  EXPECT_GT(result.block_freq[head], 0);
}

TEST(FrequencyEstimation, OutlierStallDoesNotInflateEstimate) {
  // One issue point with a huge (dynamic-stall) ratio must be excluded by
  // the clustering; the estimate should follow the quiet majority.
  Built built = BuildFor(kDiamondSource, "diamond");
  double period = 50.0;
  size_t n = (built.cfg.proc_end() - built.cfg.proc_start()) / kInstrBytes;
  std::vector<uint64_t> samples(n, 0);
  int head = built.cfg.BlockIndexFor(built.cfg.proc_start());
  int join = built.cfg.BlockIndexFor(built.cfg.proc_start() + 9 * kInstrBytes);
  for (int b : {head, join}) {
    const BasicBlock& block = built.cfg.blocks()[b];
    size_t first = (block.start_pc - built.cfg.proc_start()) / kInstrBytes;
    for (size_t k = 0; k < block.num_instructions(); ++k) {
      samples[first + k] = static_cast<uint64_t>(
          2000.0 * static_cast<double>(built.schedules[b].instrs[k].m));
    }
  }
  // Make the join block's first issue point look 40x stalled.
  const BasicBlock& join_block = built.cfg.blocks()[join];
  size_t join_first = (join_block.start_pc - built.cfg.proc_start()) / kInstrBytes;
  samples[join_first] *= 40;
  FrequencyResult result =
      EstimateFrequencies(built.cfg, built.schedules, samples, period);
  EXPECT_NEAR(result.block_freq[head], 2000 * period, 2000 * period * 0.15);
}

// Property test over the shared random-procedure generator: a block with a
// single in-edge (or a single out-edge) forms a series pair with that edge
// in the node-split equivalence graph, so the two must land in the same
// cycle-equivalence class. Restricted to blocks the entry reaches — a dead
// block's edges are bridges, which are singleton classes by definition.
TEST(FrequencyProperty, SoleInOrOutEdgeSharesTheBlockClass) {
  SplitMix64 rng(0xf00d);
  const int kTrials = 200;
  for (int trial = 0; trial < kTrials; ++trial) {
    int num_blocks = 2 + static_cast<int>(rng.NextBelow(
                             testgen::Ramp(trial, kTrials, 1, 7)));
    std::string source = testgen::RandomProcedureSource(rng, num_blocks, "rnd");
    Built built = BuildFor(source.c_str(), "rnd");
    size_t n = (built.cfg.proc_end() - built.cfg.proc_start()) / kInstrBytes;
    FrequencyResult result = EstimateFrequencies(
        built.cfg, built.schedules, std::vector<uint64_t>(n, 5), 100.0);

    std::vector<bool> reachable(built.cfg.blocks().size(), false);
    std::vector<int> worklist;
    for (int e : built.cfg.EntryEdges()) {
      int to = built.cfg.edges()[e].to;
      if (to >= 0 && !reachable[to]) {
        reachable[to] = true;
        worklist.push_back(to);
      }
    }
    while (!worklist.empty()) {
      int b = worklist.back();
      worklist.pop_back();
      for (int e : built.cfg.blocks()[b].out_edges) {
        int to = built.cfg.edges()[e].to;
        if (to >= 0 && !reachable[to]) {
          reachable[to] = true;
          worklist.push_back(to);
        }
      }
    }
    for (size_t b = 0; b < built.cfg.blocks().size(); ++b) {
      if (!reachable[b]) continue;
      const BasicBlock& block = built.cfg.blocks()[b];
      if (block.in_edges.size() == 1) {
        EXPECT_EQ(result.block_class[b], result.edge_class[block.in_edges[0]])
            << "trial " << trial << " block " << b << " in-edge\n"
            << source;
      }
      if (block.out_edges.size() == 1) {
        EXPECT_EQ(result.block_class[b], result.edge_class[block.out_edges[0]])
            << "trial " << trial << " block " << b << " out-edge\n"
            << source;
      }
    }
    if (::testing::Test::HasFailure()) break;
  }
}

}  // namespace
}  // namespace dcpi
