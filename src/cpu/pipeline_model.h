// Static pipeline model of the simulated in-order CPU.
//
// This model is shared between the cycle simulator (src/cpu/cpu.cc) and the
// offline analysis (src/analysis/static_schedule.cc), mirroring the paper's
// design where the analyzer schedules basic blocks "using a model of the
// processor on which it was run". The model is one set of constants of the
// one simulated machine, with no configuration, so the analyzer's M_i
// values cannot drift from the machine that produced the samples.
//
// Issue model (21164-flavoured, collapsed to four slots):
//   E0: loads, stores, integer ops, lda/ldah, imul, itoft, ftoit
//   E1: loads, integer ops, lda/ldah, all branches and jumps
//   FA: FP add-class ops (add/sub/cmp/cvt/cpys) and the FP divider
//   FM: FP multiplies
// An issue group is a run of consecutive instructions that each get a free
// suitable slot (greedy, program order), with no intra-group register
// dependences; a branch ends its group. Adjacent stores cannot dual-issue
// (both need E0) — the "slotting hazard" of Figure 2.

#ifndef SRC_CPU_PIPELINE_MODEL_H_
#define SRC_CPU_PIPELINE_MODEL_H_

#include <bit>
#include <cstdint>

#include "src/isa/instruction.h"

namespace dcpi {

enum class IssueSlot : uint8_t { kE0 = 0, kE1 = 1, kFA = 2, kFM = 3 };
inline constexpr int kNumIssueSlots = 4;

// Result latencies in cycles (operand-ready delay after issue). A load's
// is the D-cache hit latency, kLoadHitLatency (memory_system.h): the
// static scheduler assumes hits.
inline constexpr uint64_t kIntLatency = 1;
inline constexpr uint64_t kImulLatency = 12;
inline constexpr uint64_t kFpLatency = 4;
inline constexpr uint64_t kFpMulLatency = 4;
inline constexpr uint64_t kFdivLatency = 30;

// Functional-unit occupancy (next same-class issue must wait this long).
inline constexpr uint64_t kImulRepeat = 8;   // partially pipelined multiplier
inline constexpr uint64_t kFdivRepeat = 30;  // non-pipelined divider

// Front end.
inline constexpr uint32_t kFetchPerCycle = 4;      // instructions fetched per cycle (21164-like)
inline constexpr uint64_t kTakenBranchBubble = 1;  // correctly-predicted taken branch
inline constexpr uint64_t kJumpBubble = 2;         // computed jumps (jsr/jmp, RAS-miss ret)
inline constexpr uint64_t kMispredictPenalty = 5;
inline constexpr uint32_t kIssueQueueDepth = 8;    // bounds fetch run-ahead

class PipelineModel {
 public:
  // Bitmask of IssueSlots the instruction may use.
  static uint8_t SlotMask(const DecodedInst& inst);

  // Picks the first free suitable slot given `used_mask`; returns -1 if none.
  static int PickSlot(const DecodedInst& inst, uint8_t used_mask) {
    return PickSlot(SlotMask(inst), used_mask);
  }
  // The same, from the instruction's SlotMask.
  static int PickSlot(uint8_t slot_mask, uint8_t used_mask) {
    uint8_t free_suitable = slot_mask & static_cast<uint8_t>(~used_mask);
    return free_suitable == 0 ? -1 : std::countr_zero(free_suitable);
  }

  // Result latency assuming D-cache hits (static best case).
  static uint64_t ResultLatency(const DecodedInst& inst);

  // True if the instruction occupies the integer multiplier / FP divider.
  static bool UsesImul(const DecodedInst& inst) {
    return inst.klass() == InstrClass::kIntMul;
  }
  static bool UsesFdiv(const DecodedInst& inst) {
    return inst.klass() == InstrClass::kFpDiv;
  }

  // True if the instruction must end its issue group (control flow and
  // serializing instructions).
  static bool EndsGroup(const DecodedInst& inst);

  // True if the instruction must issue alone (serializing).
  static bool IssuesAlone(const DecodedInst& inst);
};

}  // namespace dcpi

#endif  // SRC_CPU_PIPELINE_MODEL_H_
