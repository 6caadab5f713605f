// Static pipeline model of the simulated in-order CPU.
//
// This model is shared between the cycle simulator (src/cpu/cpu.cc) and the
// offline analysis (src/analysis/static_schedule.cc), mirroring the paper's
// design where the analyzer schedules basic blocks "using a model of the
// processor on which it was run". Sharing one model guarantees that the
// analyzer's M_i values are consistent with the machine that produced the
// samples.
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

struct PipelineConfig {
  // Result latencies in cycles (operand-ready delay after issue).
  uint64_t int_latency = 1;
  uint64_t imul_latency = 12;
  uint64_t fp_latency = 4;
  uint64_t fpmul_latency = 4;
  uint64_t fdiv_latency = 30;

  // Functional-unit occupancy (next same-class issue must wait this long).
  uint64_t imul_repeat = 8;   // partially pipelined multiplier
  uint64_t fdiv_repeat = 30;  // non-pipelined divider

  // Front end.
  uint32_t fetch_width = 4;          // instructions fetched per cycle (21164-like)
  uint64_t taken_branch_bubble = 1;  // correctly-predicted taken branch
  uint64_t jump_bubble = 2;          // computed jumps (jsr/jmp, RAS-miss ret)
  uint64_t mispredict_penalty = 5;

  // Loads: D-cache hit latency lives in MemoryConfig; the static scheduler
  // assumes hits, so it needs the hit latency here as well.
  uint64_t load_hit_latency = 2;
};

class PipelineModel {
 public:
  explicit PipelineModel(const PipelineConfig& config = PipelineConfig())
      : config_(config) {}

  const PipelineConfig& config() const { return config_; }

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
  uint64_t ResultLatency(const DecodedInst& inst) const;

  // True if the instruction occupies the integer multiplier / FP divider.
  static bool UsesImul(const DecodedInst& inst) {
    return inst.klass() == InstrClass::kIntMul;
  }
  static bool UsesFdiv(const DecodedInst& inst) {
    return inst.klass() == InstrClass::kFpDiv;
  }

  // Unit occupancy for same-unit back-to-back issue.
  uint64_t UnitRepeat(const DecodedInst& inst) const;

  // True if the instruction must end its issue group (control flow and
  // serializing instructions).
  static bool EndsGroup(const DecodedInst& inst);

  // True if the instruction must issue alone (serializing).
  static bool IssuesAlone(const DecodedInst& inst);

 private:
  PipelineConfig config_;
};

}  // namespace dcpi

#endif  // SRC_CPU_PIPELINE_MODEL_H_
