// Static basic-block scheduling (Section 6.1.3 / 6.3).
//
// Schedules each basic block with the same PipelineModel the simulator
// uses, assuming no dynamic stalls (all loads hit), and derives for each
// instruction:
//   * M_i — the minimum number of cycles the instruction spends at the head
//     of the issue queue (0 for instructions that dual-issue with their
//     predecessor, the paper's "issue points" are instructions with M>0);
//   * the static stall reason, if issue was delayed: an operand dependency
//     (by register field: Ra/Rb/Rc), a functional-unit dependency, or a
//     slotting hazard;
//   * the prior instruction responsible (for dcpicalc's culprit column).
//
// Like the paper's analysis, blocks are scheduled independently of their
// predecessors (the Figure 7 discussion notes the resulting M underestimate
// for cross-iteration dependences).

#ifndef SRC_ANALYSIS_STATIC_SCHEDULE_H_
#define SRC_ANALYSIS_STATIC_SCHEDULE_H_

#include <cstdint>
#include <vector>

#include "src/cpu/pipeline_model.h"

namespace dcpi {

enum class StaticStallKind : uint8_t {
  kNone = 0,
  kRaDependency,
  kRbDependency,
  kRcDependency,
  kFuDependency,
  kSlotting,
};

const char* StaticStallKindName(StaticStallKind kind);

struct StaticInstr {
  uint64_t issue_cycle = 0;
  uint64_t m = 0;  // M_i: min head-of-queue cycles
  StaticStallKind stall = StaticStallKind::kNone;
  uint64_t stall_cycles = 0;  // cycles of static stall beyond the ideal
  int culprit = -1;           // block-relative index of the blamed instruction
  bool dual_issued = false;   // issued in the same cycle as its predecessor
};

struct BlockSchedule {
  std::vector<StaticInstr> instrs;
  uint64_t total_cycles = 0;  // sum of M_i: the block's best-case cycles
};

// Schedules the instructions of one basic block.
BlockSchedule ScheduleBlock(const std::vector<DecodedInst>& instrs);

}  // namespace dcpi

#endif  // SRC_ANALYSIS_STATIC_SCHEDULE_H_
