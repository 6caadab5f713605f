#include "src/analysis/static_schedule.h"

#include <algorithm>
#include <optional>

namespace dcpi {

const char* StaticStallKindName(StaticStallKind kind) {
  switch (kind) {
    case StaticStallKind::kNone:
      return "none";
    case StaticStallKind::kRaDependency:
      return "Ra dependency";
    case StaticStallKind::kRbDependency:
      return "Rb dependency";
    case StaticStallKind::kRcDependency:
      return "Rc dependency";
    case StaticStallKind::kFuDependency:
      return "FU dependency";
    case StaticStallKind::kSlotting:
      return "Slotting";
  }
  return "unknown";
}

namespace {

// Which register *field* of `inst` names `reg` (for Ra/Rb/Rc attribution).
StaticStallKind FieldOf(const DecodedInst& inst, RegRef reg) {
  const OpcodeInfo& oi = inst.info();
  RegBank field_bank = oi.reg_bank;
  if (inst.op == Opcode::kItoft) field_bank = RegBank::kInt;  // rb is integer
  if (inst.op == Opcode::kFtoit) field_bank = RegBank::kFp;
  if (inst.ra == reg.index &&
      (oi.format != InstrFormat::kOperate || reg.bank == oi.reg_bank)) {
    if (oi.klass == InstrClass::kStore || oi.format == InstrFormat::kOperate ||
        oi.klass == InstrClass::kCondBranch) {
      return StaticStallKind::kRaDependency;
    }
  }
  if (inst.rb == reg.index && reg.bank == (oi.format == InstrFormat::kMemory
                                               ? RegBank::kInt
                                               : field_bank)) {
    return StaticStallKind::kRbDependency;
  }
  if (oi.format == InstrFormat::kOperate && inst.rc == reg.index) {
    return StaticStallKind::kRcDependency;
  }
  return StaticStallKind::kRaDependency;
}

}  // namespace

BlockSchedule ScheduleBlock(const std::vector<DecodedInst>& instrs) {
  BlockSchedule schedule;
  schedule.instrs.resize(instrs.size());
  if (instrs.empty()) return schedule;

  // Scoreboard state, everything ready at cycle 0.
  uint64_t reg_ready[2][32] = {};
  int reg_producer[2][32];
  for (auto& bank : reg_producer) std::fill(std::begin(bank), std::end(bank), -1);
  uint64_t imul_free = 0, fdiv_free = 0;
  int imul_producer = -1, fdiv_producer = -1;

  uint64_t group_time = 0;
  uint8_t group_slots = 0;
  RegRef group_dests[kNumIssueSlots] = {};
  int group_dest_producer[kNumIssueSlots] = {};
  int group_ndests = 0;
  int group_size = 0;
  bool group_closed = true;
  uint64_t prev_issue = 0;

  for (size_t i = 0; i < instrs.size(); ++i) {
    const DecodedInst& inst = instrs[i];
    StaticInstr& out = schedule.instrs[i];

    // Operand/unit constraints.
    uint64_t earliest = 0;
    StaticStallKind constraint_kind = StaticStallKind::kNone;
    int constraint_culprit = -1;
    RegRef srcs[3];
    int nsrcs = inst.SourceRegs(srcs);
    for (int s = 0; s < nsrcs; ++s) {
      int bank = static_cast<int>(srcs[s].bank);
      uint64_t ready = reg_ready[bank][srcs[s].index];
      if (ready > earliest) {
        earliest = ready;
        constraint_kind = FieldOf(inst, srcs[s]);
        constraint_culprit = reg_producer[bank][srcs[s].index];
      }
    }
    if (PipelineModel::UsesImul(inst) && imul_free > earliest) {
      earliest = imul_free;
      constraint_kind = StaticStallKind::kFuDependency;
      constraint_culprit = imul_producer;
    }
    if (PipelineModel::UsesFdiv(inst) && fdiv_free > earliest) {
      earliest = fdiv_free;
      constraint_kind = StaticStallKind::kFuDependency;
      constraint_culprit = fdiv_producer;
    }

    // Grouping (mirrors the simulator's rules).
    std::optional<RegRef> dest = inst.DestReg();
    bool zero_dest = dest.has_value() && dest->IsZero();
    int slot = PipelineModel::PickSlot(inst, group_slots);
    bool dep_on_group = false;
    int dep_culprit = -1;
    StaticStallKind dep_kind = StaticStallKind::kNone;
    for (int d = 0; d < group_ndests; ++d) {
      for (int s = 0; s < nsrcs; ++s) {
        if (srcs[s] == group_dests[d]) {
          dep_on_group = true;
          dep_kind = FieldOf(inst, srcs[s]);
          dep_culprit = group_dest_producer[d];
        }
      }
      if (dest.has_value() && !zero_dest && *dest == group_dests[d]) {
        dep_on_group = true;
        if (dep_kind == StaticStallKind::kNone) {
          dep_kind = StaticStallKind::kRcDependency;
          dep_culprit = group_dest_producer[d];
        }
      }
    }
    bool group_open = !group_closed && group_size > 0 && group_size < kNumIssueSlots;
    bool can_group = group_open && slot >= 0 && earliest <= group_time &&
                     !PipelineModel::IssuesAlone(inst) && !dep_on_group;

    uint64_t issue_time;
    if (can_group && i > 0) {
      issue_time = group_time;
      out.dual_issued = true;
      group_slots |= static_cast<uint8_t>(1 << slot);
      ++group_size;
    } else {
      issue_time = std::max(group_time + 1, earliest);
      // Attribute why this instruction could not issue earlier.
      if (i > 0) {
        uint64_t ideal = group_open && slot >= 0 ? group_time : group_time + 1;
        if (issue_time > ideal) {
          if (earliest >= issue_time && constraint_kind != StaticStallKind::kNone) {
            out.stall = constraint_kind;
            out.culprit = constraint_culprit;
          } else if (dep_on_group) {
            out.stall = dep_kind;
            out.culprit = dep_culprit;
          } else {
            out.stall = StaticStallKind::kSlotting;
          }
          out.stall_cycles = issue_time - ideal;
        } else if (group_open && slot < 0 && earliest <= group_time) {
          // Ready, but no issue slot: the Figure 2 's' hazard.
          out.stall = StaticStallKind::kSlotting;
          out.stall_cycles = 1;
        } else if (dep_on_group && earliest <= group_time) {
          out.stall = dep_kind;
          out.culprit = dep_culprit;
          out.stall_cycles = 1;
        }
      }
      group_time = issue_time;
      group_slots = static_cast<uint8_t>(1 << (slot >= 0 ? slot : 0));
      group_ndests = 0;
      group_size = 1;
      group_closed = PipelineModel::EndsGroup(inst);
    }
    if (PipelineModel::EndsGroup(inst)) group_closed = true;
    if (dest.has_value() && !zero_dest && group_ndests < kNumIssueSlots) {
      group_dests[group_ndests] = *dest;
      group_dest_producer[group_ndests] = static_cast<int>(i);
      ++group_ndests;
    }

    out.issue_cycle = issue_time;
    out.m = i == 0 ? 1 : issue_time - prev_issue;
    prev_issue = issue_time;

    // Scoreboard updates.
    if (dest.has_value() && !zero_dest) {
      int bank = static_cast<int>(dest->bank);
      reg_ready[bank][dest->index] = issue_time + PipelineModel::ResultLatency(inst);
      reg_producer[bank][dest->index] = static_cast<int>(i);
    }
    if (PipelineModel::UsesImul(inst)) {
      imul_free = issue_time + kImulRepeat;
      imul_producer = static_cast<int>(i);
    }
    if (PipelineModel::UsesFdiv(inst)) {
      fdiv_free = issue_time + kFdivRepeat;
      fdiv_producer = static_cast<int>(i);
    }
  }

  for (const StaticInstr& instr : schedule.instrs) schedule.total_cycles += instr.m;
  return schedule;
}

}  // namespace dcpi
