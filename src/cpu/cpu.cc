#include "src/cpu/cpu.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>

namespace dcpi {

namespace {

// Bit-cast helpers for FP loads/stores and itoft/ftoit.
double BitsToDouble(uint64_t bits) {
  double d;
  std::memcpy(&d, &bits, sizeof(d));
  return d;
}
uint64_t DoubleToBits(double d) {
  uint64_t bits;
  std::memcpy(&bits, &d, sizeof(bits));
  return bits;
}

// Guest address arithmetic wraps modulo 2^64 like the hardware; computed
// unsigned to avoid signed-overflow UB.
uint64_t WrapAdd(int64_t a, int64_t b) {
  return static_cast<uint64_t>(a) + static_cast<uint64_t>(b);
}

}  // namespace

Cpu::Cpu(uint32_t cpu_id, const CpuConfig& config)
    : cpu_id_(cpu_id),
      config_(config),
      model_(config.pipeline),
      memory_(config.memory),
      predictor_(config.predictor_entries, config.ras_entries) {
  if (config_.issue_queue_depth > kMaxQueueDepth) {
    config_.issue_queue_depth = kMaxQueueDepth;
  }
  fetch_piece_shift_ = static_cast<unsigned>(
      std::countr_zero(std::min(config_.memory.icache.line_bytes, kPageBytes)));
  for (int op = 0; op < kNumOpcodes; ++op) {
    DecodedInst inst;
    inst.op = static_cast<Opcode>(op);
    OpcodeFacts& facts = opcode_facts_[op];
    facts.klass = inst.klass();
    facts.slot_mask = PipelineModel::SlotMask(inst);
    facts.ends_group = PipelineModel::EndsGroup(inst);
    facts.issues_alone = PipelineModel::IssuesAlone(inst);
    facts.uses_imul = PipelineModel::UsesImul(inst);
    facts.uses_fdiv = PipelineModel::UsesFdiv(inst);
    facts.result_latency = model_.ResultLatency(inst);
  }
}

void Cpu::OnContextSwitch() {
  ++stats_.context_switches;
  if (config_.flush_tlb_on_switch) memory_.ClearTlbs();
  fetch_line_ = ~0ull;
  fetch_piece_ = ~0ull;
  fetch_count_ = 0;
  fetch_time_ = last_issue_time_;
  pending_fetch_cause_ = StallCause::kNone;
  floor_time_ = last_issue_time_;
  floor_cause_ = StallCause::kNone;
  group_closed_ = true;
  group_slots_ = 0;
  group_ndests_ = 0;
  group_size_ = 0;
  for (int r = 0; r < kNumIntRegs + kNumFpRegs; ++r) {
    reg_ready_[r] = last_issue_time_;
    reg_cause_[r] = StallCause::kNone;
  }
}

Cpu::FetchInfo Cpu::ComputeFetchTime(ExecContext& ctx, uint64_t pc) {
  FetchInfo info;
  // Fetch cannot run further ahead of issue than the queue depth allows.
  uint64_t oldest =
      recent_issue_[(recent_pos_ + kMaxQueueDepth - config_.issue_queue_depth) %
                    kMaxQueueDepth];
  if (fetch_time_ < oldest) fetch_time_ = oldest;

  // Translate only when pc leaves the virtual piece the current fetch line
  // came from: the same piece always maps to the same physical line.
  const uint64_t piece = pc >> fetch_piece_shift_;
  uint64_t paddr = 0;
  uint64_t line = fetch_line_;
  if (piece != fetch_piece_) {
    paddr = ctx.Translate(pc);
    line = memory_.icache().LineOf(paddr);
    fetch_piece_ = piece;
  }
  if (line != fetch_line_) {
    if (fetch_line_ != ~0ull) {
      fetch_time_ += 1;  // line crossing consumes the next fetch slot
    }
    FetchResult fr = memory_.AccessFetch(pc, paddr);
    if (fr.latency > 0) fetch_time_ += fr.latency;
    if (fr.icache_miss) {
      info.icache_miss = true;
      info.cause = StallCause::kIcacheMiss;
      if (monitor_ != nullptr) monitor_->OnEvent(EventType::kImiss, fetch_time_);
    }
    if (fr.itb_miss) {
      info.itb_miss = true;
      info.cause = StallCause::kItbMiss;
    }
    fetch_line_ = line;
    fetch_count_ = 0;
  } else if (fetch_count_ >= config_.pipeline.fetch_width) {
    fetch_time_ += 1;
    fetch_count_ = 0;
    if (info.cause == StallCause::kNone) info.cause = StallCause::kFetchWidth;
  }
  ++fetch_count_;
  if (pending_fetch_cause_ != StallCause::kNone) {
    info.cause = pending_fetch_cause_;
    pending_fetch_cause_ = StallCause::kNone;
  }
  info.time = fetch_time_;
  return info;
}

void Cpu::RedirectFetch(uint64_t resume_time, StallCause cause) {
  fetch_time_ = resume_time;
  fetch_line_ = ~0ull;
  fetch_piece_ = ~0ull;
  fetch_count_ = 0;
  pending_fetch_cause_ = cause;
}

bool Cpu::DependsOnGroup(const PredecodedInst& inst) const {
  // group_dests_ never holds kNoReg, so an instruction without a
  // destination cannot match in the WAW check.
  for (int d = 0; d < group_ndests_; ++d) {
    for (int s = 0; s < inst.nsrcs; ++s) {
      if (inst.srcs[s] == group_dests_[d]) return true;  // RAW
    }
    if (inst.dest == group_dests_[d]) return true;  // WAW
  }
  return false;
}

bool Cpu::Step(ExecContext& ctx, RegFile& regs, uint32_t pid) {
  const uint64_t pc = regs.pc;
  if (!window_.Contains(pc)) {
    window_ = ctx.FetchText(pc);
    if (!window_.Contains(pc)) {
      exit_ = ExitReason::kBadPc;
      return false;
    }
  }
  const PredecodedInst& pre = window_.At(pc);
  const DecodedInst* inst = &pre.inst;
  const OpcodeFacts& facts = opcode_facts_[static_cast<int>(inst->op)];

  // ---- Front end ----
  FetchInfo fetch = ComputeFetchTime(ctx, pc);

  // ---- Issue constraints ----
  Constraint constraint;
  constraint.Raise(fetch.time, fetch.cause);
  constraint.Raise(floor_time_, floor_cause_);

  for (int s = 0; s < pre.nsrcs; ++s) {
    StallCause cause = reg_cause_[pre.srcs[s]];
    constraint.Raise(reg_ready_[pre.srcs[s]],
                     cause == StallCause::kNone ? StallCause::kDependency : cause);
  }
  if (facts.uses_imul) {
    constraint.Raise(imul_free_, StallCause::kImulBusy);
  }
  if (facts.uses_fdiv) {
    constraint.Raise(fdiv_free_, StallCause::kFdivBusy);
  }

  // Memory-instruction address and DTB handling (pre-issue).
  uint64_t vaddr = 0;
  uint64_t paddr = 0;
  bool dtb_miss = false;
  InstrClass klass = facts.klass;
  if (klass == InstrClass::kLoad || klass == InstrClass::kStore) {
    vaddr = WrapAdd(regs.ReadInt(inst->rb), inst->disp);
    paddr = ctx.Translate(vaddr);
    dtb_miss = memory_.AccessDtbForData(vaddr);
    if (dtb_miss) {
      // The PAL fill runs once the access reaches the head of the queue.
      constraint.Raise(last_issue_time_ + memory_.config().tlb_fill_penalty,
                       StallCause::kDtbMiss);
      if (monitor_ != nullptr) monitor_->OnEvent(EventType::kDtbMiss, last_issue_time_);
    }
  }
  if (klass == InstrClass::kStore) {
    uint64_t base = std::max(constraint.time, last_issue_time_);
    constraint.Raise(memory_.write_buffer().EarliestIssue(paddr, base),
                     StallCause::kWriteBuffer);
  }
  if (klass == InstrClass::kBarrier) {
    constraint.Raise(memory_.write_buffer().DrainAllTime(), StallCause::kSync);
  }

  // ---- Grouping / issue time ----
  uint64_t prev_issue_event = last_issue_time_;
  int slot = PipelineModel::PickSlot(facts.slot_mask, group_slots_);
  bool can_group = !group_closed_ && group_size_ > 0 &&
                   group_size_ < kNumIssueSlots && slot >= 0 &&
                   constraint.time <= group_time_ && !facts.issues_alone &&
                   !DependsOnGroup(pre);

  uint64_t issue_time;
  bool new_group;
  if (can_group) {
    issue_time = group_time_;
    group_slots_ |= static_cast<uint8_t>(1 << slot);
    ++group_size_;
    new_group = false;
  } else {
    issue_time = std::max(group_time_ + 1, constraint.time);
    new_group = true;
  }

  // Samples: the head interval (prev_issue_event, issue_time] belongs to
  // this instruction. The monitor may stretch the stall with handler time;
  // before its issue horizon it has nothing to deliver, so it is not called.
  if (new_group && monitor_ != nullptr && issue_time >= monitor_->issue_horizon()) {
    uint64_t adjusted = monitor_->OnIssue(pid, pc, issue_time);
    if (adjusted > issue_time) {
      fetch_time_ += adjusted - issue_time;
      issue_time = adjusted;
    }
  }
  if (new_group) {
    group_time_ = issue_time;
    group_slots_ = static_cast<uint8_t>(1 << (slot >= 0 ? slot : 0));
    group_ndests_ = 0;
    group_size_ = 1;
    group_closed_ = facts.ends_group;
    ++stats_.issue_groups;
  } else if (facts.ends_group) {
    group_closed_ = true;
  }
  if (pre.dest != kNoReg && group_ndests_ < kNumIssueSlots) {
    group_dests_[group_ndests_++] = pre.dest;
  }
  last_issue_time_ = group_time_;
  recent_issue_[recent_pos_ % kMaxQueueDepth] = issue_time;
  ++recent_pos_;

  // ---- Execute ----
  uint64_t next_pc = pc + kInstrBytes;
  uint64_t dest_ready = issue_time + facts.result_latency;
  StallCause dest_cause = StallCause::kNone;
  bool record_taken_edge = false;
  uint64_t taken_target = 0;
  bool dmiss = false;
  bool mispredicted = false;

  switch (inst->op) {
    case Opcode::kLda:
      regs.WriteInt(inst->ra, static_cast<int64_t>(WrapAdd(regs.ReadInt(inst->rb), inst->disp)));
      break;
    case Opcode::kLdah:
      regs.WriteInt(inst->ra, static_cast<int64_t>(WrapAdd(
                                  regs.ReadInt(inst->rb), static_cast<int64_t>(inst->disp) * 65536)));
      break;
    case Opcode::kLdq:
    case Opcode::kLdl:
    case Opcode::kLdt: {
      ++stats_.loads;
      unsigned size = inst->op == Opcode::kLdl ? 4 : 8;
      uint64_t value = 0;
      if (!ctx.LoadData(vaddr, size, &value)) {
        exit_ = ExitReason::kBadMemory;
        return false;
      }
      LoadResult lr = memory_.AccessLoad(paddr);
      dest_ready = issue_time + lr.latency;
      if (lr.dcache_miss) {
        dmiss = true;
        dest_cause = StallCause::kDcacheMiss;
        if (monitor_ != nullptr) monitor_->OnEvent(EventType::kDmiss, issue_time);
      }
      // Runs after this instruction's OnIssue: a monitor that armed a wide
      // sample at delivery fills in the data address, latency and level.
      if (monitor_ != nullptr) {
        monitor_->OnDataAccess(pid, pc, vaddr, lr.latency, lr.dcache_miss,
                               lr.board_miss, dtb_miss);
      }
      if (inst->op == Opcode::kLdl) {
        regs.WriteInt(inst->ra, static_cast<int64_t>(static_cast<int32_t>(value)));
      } else if (inst->op == Opcode::kLdt) {
        regs.WriteFp(inst->ra, BitsToDouble(value));
      } else {
        regs.WriteInt(inst->ra, static_cast<int64_t>(value));
      }
      break;
    }
    case Opcode::kStq:
    case Opcode::kStl:
    case Opcode::kStt: {
      ++stats_.stores;
      unsigned size = inst->op == Opcode::kStl ? 4 : 8;
      uint64_t value = inst->op == Opcode::kStt
                           ? DoubleToBits(regs.ReadFp(inst->ra))
                           : static_cast<uint64_t>(regs.ReadInt(inst->ra));
      if (!ctx.StoreData(vaddr, size, value)) {
        exit_ = ExitReason::kBadMemory;
        return false;
      }
      memory_.CommitStore(paddr, issue_time);
      break;
    }
    case Opcode::kAddq:
    case Opcode::kSubq:
    case Opcode::kMulq:
    case Opcode::kAnd:
    case Opcode::kBis:
    case Opcode::kXor:
    case Opcode::kSll:
    case Opcode::kSrl:
    case Opcode::kSra:
    case Opcode::kCmpeq:
    case Opcode::kCmplt:
    case Opcode::kCmple:
    case Opcode::kCmpult:
    case Opcode::kCmpule: {
      int64_t a = regs.ReadInt(inst->ra);
      int64_t b = inst->has_literal ? inst->literal : regs.ReadInt(inst->rb);
      int64_t result = 0;
      switch (inst->op) {
        // Arithmetic wraps modulo 2^64 like the hardware; compute unsigned
        // to avoid signed-overflow UB on guest programs that rely on it
        // (e.g. LCG random-number kernels).
        case Opcode::kAddq:
          result = static_cast<int64_t>(static_cast<uint64_t>(a) +
                                        static_cast<uint64_t>(b));
          break;
        case Opcode::kSubq:
          result = static_cast<int64_t>(static_cast<uint64_t>(a) -
                                        static_cast<uint64_t>(b));
          break;
        case Opcode::kMulq:
          result = static_cast<int64_t>(static_cast<uint64_t>(a) *
                                        static_cast<uint64_t>(b));
          imul_free_ = issue_time + config_.pipeline.imul_repeat;
          break;
        case Opcode::kAnd:
          result = a & b;
          break;
        case Opcode::kBis:
          result = a | b;
          break;
        case Opcode::kXor:
          result = a ^ b;
          break;
        case Opcode::kSll:
          result = static_cast<int64_t>(static_cast<uint64_t>(a) << (b & 63));
          break;
        case Opcode::kSrl:
          result = static_cast<int64_t>(static_cast<uint64_t>(a) >> (b & 63));
          break;
        case Opcode::kSra:
          result = a >> (b & 63);
          break;
        case Opcode::kCmpeq:
          result = a == b;
          break;
        case Opcode::kCmplt:
          result = a < b;
          break;
        case Opcode::kCmple:
          result = a <= b;
          break;
        case Opcode::kCmpult:
          result = static_cast<uint64_t>(a) < static_cast<uint64_t>(b);
          break;
        case Opcode::kCmpule:
          result = static_cast<uint64_t>(a) <= static_cast<uint64_t>(b);
          break;
        default:
          break;
      }
      regs.WriteInt(inst->rc, result);
      break;
    }
    case Opcode::kCmoveq:
    case Opcode::kCmovne: {
      int64_t a = regs.ReadInt(inst->ra);
      int64_t b = inst->has_literal ? inst->literal : regs.ReadInt(inst->rb);
      bool move = inst->op == Opcode::kCmoveq ? (a == 0) : (a != 0);
      if (move) regs.WriteInt(inst->rc, b);
      break;
    }
    case Opcode::kAddt:
    case Opcode::kSubt:
    case Opcode::kMult:
    case Opcode::kDivt:
    case Opcode::kCpys:
    case Opcode::kCmptlt:
    case Opcode::kCmpteq:
    case Opcode::kCvtqt:
    case Opcode::kCvttq: {
      double a = regs.ReadFp(inst->ra);
      double b = inst->has_literal ? static_cast<double>(inst->literal) : regs.ReadFp(inst->rb);
      double result = 0.0;
      switch (inst->op) {
        case Opcode::kAddt:
          result = a + b;
          break;
        case Opcode::kSubt:
          result = a - b;
          break;
        case Opcode::kMult:
          result = a * b;
          break;
        case Opcode::kDivt:
          result = b != 0.0 ? a / b : 0.0;
          fdiv_free_ = issue_time + config_.pipeline.fdiv_repeat;
          break;
        case Opcode::kCpys:
          result = a < 0.0 || (a == 0.0 && std::signbit(a)) ? -std::fabs(b) : std::fabs(b);
          break;
        case Opcode::kCmptlt:
          result = a < b ? 2.0 : 0.0;
          break;
        case Opcode::kCmpteq:
          result = a == b ? 2.0 : 0.0;
          break;
        case Opcode::kCvtqt:
          result = static_cast<double>(static_cast<int64_t>(DoubleToBits(b)));
          break;
        case Opcode::kCvttq:
          result = BitsToDouble(static_cast<uint64_t>(static_cast<int64_t>(b)));
          break;
        default:
          break;
      }
      regs.WriteFp(inst->rc, result);
      break;
    }
    case Opcode::kItoft:
      regs.WriteFp(inst->ra, BitsToDouble(static_cast<uint64_t>(regs.ReadInt(inst->rb))));
      break;
    case Opcode::kFtoit:
      regs.WriteInt(inst->ra, static_cast<int64_t>(DoubleToBits(regs.ReadFp(inst->rb))));
      break;
    case Opcode::kBr:
    case Opcode::kBsr: {
      uint64_t target = inst->BranchTarget(pc);
      regs.WriteInt(inst->ra, static_cast<int64_t>(pc + kInstrBytes));
      if (inst->op == Opcode::kBsr) predictor_.PushReturn(pc + kInstrBytes);
      next_pc = target;
      record_taken_edge = true;
      taken_target = target;
      RedirectFetch(issue_time + config_.pipeline.taken_branch_bubble, StallCause::kNone);
      break;
    }
    case Opcode::kBeq:
    case Opcode::kBne:
    case Opcode::kBlt:
    case Opcode::kBle:
    case Opcode::kBgt:
    case Opcode::kBge:
    case Opcode::kFbeq:
    case Opcode::kFbne: {
      ++stats_.cond_branches;
      bool taken = false;
      if (inst->op == Opcode::kFbeq || inst->op == Opcode::kFbne) {
        double a = regs.ReadFp(inst->ra);
        taken = inst->op == Opcode::kFbeq ? (a == 0.0) : (a != 0.0);
      } else {
        int64_t a = regs.ReadInt(inst->ra);
        switch (inst->op) {
          case Opcode::kBeq:
            taken = a == 0;
            break;
          case Opcode::kBne:
            taken = a != 0;
            break;
          case Opcode::kBlt:
            taken = a < 0;
            break;
          case Opcode::kBle:
            taken = a <= 0;
            break;
          case Opcode::kBgt:
            taken = a > 0;
            break;
          case Opcode::kBge:
            taken = a >= 0;
            break;
          default:
            break;
        }
      }
      bool correct = predictor_.PredictConditional(pc, taken);
      if (!correct) {
        ++stats_.mispredicts;
        mispredicted = true;
        if (monitor_ != nullptr) monitor_->OnEvent(EventType::kBranchMp, issue_time);
      }
      if (taken) {
        uint64_t target = inst->BranchTarget(pc);
        next_pc = target;
        record_taken_edge = true;
        taken_target = target;
        RedirectFetch(issue_time + (correct ? config_.pipeline.taken_branch_bubble
                                            : config_.pipeline.mispredict_penalty),
                      correct ? StallCause::kNone : StallCause::kBranchMispredict);
      } else if (!correct) {
        // Predicted taken, fell through: wrong-path fetch must be undone.
        RedirectFetch(issue_time + config_.pipeline.mispredict_penalty,
                      StallCause::kBranchMispredict);
      }
      break;
    }
    case Opcode::kJmp:
    case Opcode::kJsr:
    case Opcode::kRet: {
      uint64_t target = static_cast<uint64_t>(regs.ReadInt(inst->rb)) & ~(kInstrBytes - 1);
      regs.WriteInt(inst->ra, static_cast<int64_t>(pc + kInstrBytes));
      if (inst->op == Opcode::kJsr) predictor_.PushReturn(pc + kInstrBytes);
      uint64_t bubble = config_.pipeline.jump_bubble;
      if (inst->op == Opcode::kRet) {
        if (predictor_.PopReturnMatches(target)) {
          bubble = config_.pipeline.taken_branch_bubble;
        } else {
          bubble = config_.pipeline.mispredict_penalty;
          mispredicted = true;
          if (monitor_ != nullptr) monitor_->OnEvent(EventType::kBranchMp, issue_time);
        }
      }
      next_pc = target;
      record_taken_edge = true;
      taken_target = target;
      RedirectFetch(issue_time + bubble,
                    mispredicted ? StallCause::kBranchMispredict : StallCause::kNone);
      break;
    }
    case Opcode::kMb:
      break;
    case Opcode::kCallPal: {
      PalFunc func = static_cast<PalFunc>(inst->disp);
      if (func == PalFunc::kHalt) {
        exit_ = ExitReason::kHalted;
        exit_after_ = true;
        break;
      }
      if (func == PalFunc::kYield) {
        exit_ = ExitReason::kYielded;
        exit_after_ = true;
        break;
      }
      // kNopPal and unknown functions: spend time in PAL mode.
      uint64_t pal_end = issue_time + config_.pal_nop_cycles;
      if (monitor_ != nullptr) monitor_->OnPalWindow(issue_time, pal_end);
      floor_time_ = pal_end;
      floor_cause_ = StallCause::kNone;
      RedirectFetch(pal_end, StallCause::kNone);
      last_issue_time_ = pal_end;
      group_time_ = pal_end;
      group_closed_ = true;
      break;
    }
    case Opcode::kOpcodeCount:
      break;
  }

  // Scoreboard update.
  if (pre.dest != kNoReg) {
    reg_ready_[pre.dest] = dest_ready;
    reg_cause_[pre.dest] = dest_cause;
  }

  // ---- Ground truth ----
  if (ground_truth_ != nullptr) {
    InstructionTruth* truth = ground_truth_->ForPc(pc);
    if (truth != nullptr) {
      ++truth->exec_count;
      if (fetch.icache_miss) ++truth->imiss_events;
      if (dmiss) ++truth->dmiss_events;
      if (mispredicted) ++truth->mispredict_events;
      if (dtb_miss) ++truth->dtbmiss_events;
      if (new_group) {
        uint64_t head = issue_time - prev_issue_event;
        truth->head_cycles += head;
        if (head > 1 && constraint.cause != StallCause::kNone &&
            constraint.time > prev_issue_event + 1) {
          uint64_t stall = std::min(head - 1, constraint.time - prev_issue_event - 1);
          truth->stall_cycles[static_cast<int>(constraint.cause)] += stall;
        } else if (head > 1) {
          truth->stall_cycles[static_cast<int>(StallCause::kSlotting)] += head - 1;
        }
      }
    }
    if (record_taken_edge) ground_truth_->AddEdge(pc, taken_target);
  }

  regs.pc = next_pc;
  ++stats_.instructions;
  if (exit_after_) {
    exit_after_ = false;
    return false;
  }
  return true;
}

RunResult Cpu::Run(ExecContext& ctx, uint64_t max_cycles, uint64_t max_instructions) {
  uint64_t start_cycle = last_issue_time_;
  uint64_t start_instructions = stats_.instructions;
  RegFile& regs = ctx.regs();
  const uint32_t pid = ctx.pid();
  // The text window and the fetch translation skip belong to the context
  // of one Run; start both afresh.
  window_ = TextWindow();
  fetch_piece_ = ~0ull;
  while (true) {
    if (last_issue_time_ - start_cycle >= max_cycles) {
      exit_ = ExitReason::kQuantumExpired;
      break;
    }
    if (stats_.instructions - start_instructions >= max_instructions) {
      exit_ = ExitReason::kInstructionLimit;
      break;
    }
    if (!Step(ctx, regs, pid)) break;
  }
  return RunResult{exit_, last_issue_time_ - start_cycle,
                   stats_.instructions - start_instructions};
}

}  // namespace dcpi
