// Static scheduler unit tests: issue grouping rules, M values, stall-kind
// attribution, and consistency properties across generated blocks.

#include <gtest/gtest.h>

#include <map>

#include "src/analysis/static_schedule.h"
#include "src/isa/assembler.h"
#include "src/support/rng.h"

namespace dcpi {
namespace {

std::vector<DecodedInst> InstrsOf(const std::string& body) {
  auto image = Assemble("t", 0x1000, body);
  EXPECT_TRUE(image.ok()) << image.status().ToString();
  std::vector<DecodedInst> instrs;
  for (uint32_t word : image.value()->text()) instrs.push_back(*Decode(word));
  return instrs;
}

TEST(StaticSchedule, IndependentPairDualIssues) {
  BlockSchedule s = ScheduleBlock(InstrsOf(R"(
        addq r1, 1, r2
        addq r3, 1, r4
)"));
  EXPECT_EQ(s.instrs[0].m, 1u);
  EXPECT_EQ(s.instrs[1].m, 0u);
  EXPECT_TRUE(s.instrs[1].dual_issued);
  EXPECT_EQ(s.total_cycles, 1u);
}

TEST(StaticSchedule, RawDependencyBlocksGroupingAndNamesField) {
  BlockSchedule s = ScheduleBlock(InstrsOf(R"(
        addq r1, 1, r2
        addq r2, 1, r3
)"));
  EXPECT_EQ(s.instrs[1].m, 1u);
  EXPECT_FALSE(s.instrs[1].dual_issued);
  EXPECT_EQ(s.instrs[1].stall, StaticStallKind::kRaDependency);
  EXPECT_EQ(s.instrs[1].culprit, 0);
}

TEST(StaticSchedule, LoadLatencyCreatesRbOrRaStall) {
  // The consumer of a load waits kLoadHitLatency (2): one cycle of stall
  // beyond the sequential issue.
  BlockSchedule s = ScheduleBlock(InstrsOf(R"(
        ldq  r2, 0(r1)
        addq r2, 1, r3
)"));
  EXPECT_EQ(s.instrs[1].m, 2u);  // issue at cycle 3 vs load at 1
  EXPECT_EQ(s.instrs[1].stall, StaticStallKind::kRaDependency);
  EXPECT_EQ(s.instrs[1].stall_cycles, 2u);
}

TEST(StaticSchedule, ImulLatencyIsLong) {
  BlockSchedule s = ScheduleBlock(InstrsOf(R"(
        mulq r1, r2, r3
        addq r3, 1, r4
)"));
  EXPECT_EQ(s.instrs[1].m, kImulLatency);
}

TEST(StaticSchedule, FuOccupancyStallsSecondDivide) {
  BlockSchedule s = ScheduleBlock(InstrsOf(R"(
        divt f1, f2, f3
        divt f4, f5, f6
)"));
  EXPECT_EQ(s.instrs[1].stall, StaticStallKind::kFuDependency);
  EXPECT_EQ(s.instrs[1].m, kFdivRepeat);
}

TEST(StaticSchedule, AdjacentStoresAreSlottingHazard) {
  BlockSchedule s = ScheduleBlock(InstrsOf(R"(
        stq r1, 0(r3)
        stq r2, 8(r3)
)"));
  EXPECT_EQ(s.instrs[1].m, 1u);
  EXPECT_EQ(s.instrs[1].stall, StaticStallKind::kSlotting);
}

TEST(StaticSchedule, LoadsCanPairButNotTriple) {
  BlockSchedule s = ScheduleBlock(InstrsOf(R"(
        ldq r1, 0(r9)
        ldq r2, 8(r9)
        ldq r3, 16(r9)
)"));
  EXPECT_EQ(s.instrs[0].m, 1u);
  EXPECT_EQ(s.instrs[1].m, 0u);  // two load ports
  EXPECT_EQ(s.instrs[2].m, 1u);  // third load waits a cycle
}

TEST(StaticSchedule, BranchEndsGroup) {
  BlockSchedule s = ScheduleBlock(InstrsOf(R"(
        addq r1, 1, r1
        bne  r3, 0
        addq r2, 1, r2
)"));
  // The branch pairs with the (independent) addq, but nothing pairs after
  // a branch: it closes its issue group.
  EXPECT_EQ(s.instrs[1].m, 0u);
  EXPECT_EQ(s.instrs[2].m, 1u);
}

TEST(StaticScheduleProperty, MValuesAreConsistent) {
  // Properties over random straight-line blocks:
  //  * M_0 == 1;
  //  * sum of M == last issue cycle (head times partition the schedule);
  //  * instructions never issue before their producers' results are ready.
  SplitMix64 rng(77);
  for (int trial = 0; trial < 200; ++trial) {
    std::string body;
    int n = 2 + static_cast<int>(rng.NextBelow(12));
    for (int i = 0; i < n; ++i) {
      int a = 1 + static_cast<int>(rng.NextBelow(6));
      int b = 1 + static_cast<int>(rng.NextBelow(6));
      int c = 1 + static_cast<int>(rng.NextBelow(6));
      switch (rng.NextBelow(4)) {
        case 0:
          body += "addq r" + std::to_string(a) + ", r" + std::to_string(b) + ", r" +
                  std::to_string(c) + "\n";
          break;
        case 1:
          body += "ldq r" + std::to_string(a) + ", 0(r" + std::to_string(b) + ")\n";
          break;
        case 2:
          body += "stq r" + std::to_string(a) + ", 0(r" + std::to_string(b) + ")\n";
          break;
        default:
          body += "mulq r" + std::to_string(a) + ", r" + std::to_string(b) + ", r" +
                  std::to_string(c) + "\n";
          break;
      }
    }
    std::vector<DecodedInst> instrs = InstrsOf(body);
    BlockSchedule s = ScheduleBlock(instrs);
    ASSERT_EQ(s.instrs.size(), instrs.size());
    EXPECT_EQ(s.instrs[0].m, 1u) << body;
    uint64_t sum_m = 0;
    uint64_t prev_issue = 0;
    std::map<std::pair<int, int>, uint64_t> ready;  // (bank, reg) -> time
    for (size_t i = 0; i < instrs.size(); ++i) {
      sum_m += s.instrs[i].m;
      EXPECT_GE(s.instrs[i].issue_cycle, prev_issue) << body;
      // Operand readiness.
      RegRef srcs[3];
      int nsrcs = instrs[i].SourceRegs(srcs);
      for (int k = 0; k < nsrcs; ++k) {
        auto it = ready.find({static_cast<int>(srcs[k].bank), srcs[k].index});
        if (it != ready.end()) {
          EXPECT_GE(s.instrs[i].issue_cycle, it->second)
              << "operand not ready in:\n" << body;
        }
      }
      auto dest = instrs[i].DestReg();
      if (dest.has_value() && !dest->IsZero()) {
        ready[{static_cast<int>(dest->bank), dest->index}] =
            s.instrs[i].issue_cycle + PipelineModel::ResultLatency(instrs[i]);
      }
      prev_issue = s.instrs[i].issue_cycle;
    }
    EXPECT_EQ(sum_m, s.instrs.back().issue_cycle) << body;
    EXPECT_EQ(sum_m, s.total_cycles) << body;
  }
}

}  // namespace
}  // namespace dcpi
