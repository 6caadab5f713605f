// The in-order dual-issue CPU simulator.
//
// The simulator executes instructions in dynamic order and maintains a
// timing model in which — like the 21064/21164 the paper relies on —
// instructions stall only at the head of the issue queue. Every cycle
// between consecutive issue groups is attributed to the instruction that
// was waiting at the head (the group leader), which is exactly the quantity
// CYCLES sampling observes: the sampled PC six cycles after a counter
// overflow is the head-of-queue instruction (Section 4.1.2).
//
// The CPU reports discrete events to a PerfMonitor (the performance-
// counter subsystem) and calls its OnIssue only for issue groups at or past
// the monitor's issue horizon, the earliest time a sample can be due; the
// groups before it cost one compare, not a call. Optionally it records
// exact per-instruction execution counts and stall attributions into a
// GroundTruth recorder (the dcpix role); nothing reads the recorder back
// into the simulation, so attaching one changes no simulated byte.

#ifndef SRC_CPU_CPU_H_
#define SRC_CPU_CPU_H_

#include <bit>
#include <cstdint>

#include "src/cpu/branch_predictor.h"
#include "src/cpu/exec_context.h"
#include "src/cpu/ground_truth.h"
#include "src/cpu/perf_monitor.h"
#include "src/cpu/pipeline_model.h"
#include "src/memory/memory_system.h"

namespace dcpi {

enum class ExitReason {
  kHalted,
  kYielded,
  kQuantumExpired,
  kInstructionLimit,
  kBadPc,
  kBadMemory,
};

struct RunResult {
  ExitReason reason;
  uint64_t cycles_used = 0;
  uint64_t instructions = 0;
};

struct CpuStats {
  uint64_t instructions = 0;
  uint64_t issue_groups = 0;
  uint64_t loads = 0;
  uint64_t stores = 0;
  uint64_t cond_branches = 0;
  uint64_t mispredicts = 0;
  uint64_t context_switches = 0;
};

class Cpu {
 public:
  explicit Cpu(uint32_t cpu_id);

  // Both optional; may be set/cleared between runs.
  void set_monitor(PerfMonitor* monitor) { monitor_ = monitor; }
  void set_ground_truth(GroundTruth* ground_truth) { ground_truth_ = ground_truth; }
  const GroundTruth* ground_truth() const { return ground_truth_; }

  // Runs `ctx` until it halts, yields, exceeds `max_cycles` of CPU time, or
  // executes `max_instructions`. Time continues from the previous run.
  RunResult Run(ExecContext& ctx, uint64_t max_cycles,
                uint64_t max_instructions = ~0ull);

  // Kernel notification before switching to a different context; flushes
  // the TLBs (address-space numbers are not modelled).
  void OnContextSwitch();

  // Current CPU time (cycle of the last issue event).
  uint64_t now() const { return last_issue_time_; }

  uint32_t cpu_id() const { return cpu_id_; }
  MemorySystem& memory() { return memory_; }
  const MemorySystem& memory() const { return memory_; }
  const BranchPredictor& predictor() const { return predictor_; }
  const CpuStats& stats() const { return stats_; }

 private:
  struct FetchInfo {
    uint64_t time = 0;
    bool icache_miss = false;
    bool itb_miss = false;
    StallCause cause = StallCause::kNone;
  };

  struct Constraint {
    uint64_t time = 0;
    StallCause cause = StallCause::kNone;

    void Raise(uint64_t t, StallCause c) {
      if (t > time) {
        time = t;
        cause = c;
      }
    }
  };

  // What the issue logic needs of an opcode, computed once from the
  // PipelineModel the analysis schedules with.
  struct OpcodeFacts {
    InstrClass klass = InstrClass::kIntOp;
    uint8_t slot_mask = 0;
    bool ends_group = false;
    bool issues_alone = false;
    bool uses_imul = false;
    bool uses_fdiv = false;
    uint64_t result_latency = 0;
  };

  FetchInfo ComputeFetchTime(ExecContext& ctx, uint64_t pc);
  void RedirectFetch(uint64_t resume_time, StallCause cause);
  bool DependsOnGroup(const PredecodedInst& inst) const;

  // One dynamic instruction; `regs` and `pid` are ctx.regs() and
  // ctx.pid(), read once per Run. Returns true to continue; on false,
  // `exit_` holds the reason.
  bool Step(ExecContext& ctx, RegFile& regs, uint32_t pid);

  uint32_t cpu_id_;
  MemorySystem memory_;
  BranchPredictor predictor_;
  PerfMonitor* monitor_ = nullptr;
  GroundTruth* ground_truth_ = nullptr;
  OpcodeFacts opcode_facts_[kNumOpcodes];

  // Text window of the running context, fetched again only when the PC
  // leaves it; cleared at the start of every Run, so it never outlives the
  // context it came from.
  TextWindow window_;

  // Register scoreboard, indexed by RegId: ready time and the
  // microarchitectural reason a consumer would stall on it.
  uint64_t reg_ready_[kNumIntRegs + kNumFpRegs] = {};
  StallCause reg_cause_[kNumIntRegs + kNumFpRegs] = {};

  uint64_t imul_free_ = 0;
  uint64_t fdiv_free_ = 0;

  // Current issue group.
  uint64_t group_time_ = 0;
  uint8_t group_slots_ = 0;
  uint8_t group_dests_[kNumIssueSlots] = {};  // RegIds
  int group_ndests_ = 0;
  int group_size_ = 0;
  bool group_closed_ = true;
  uint64_t last_issue_time_ = 0;

  // Pipeline resume floor (DTB traps, PAL windows) for the next issue.
  uint64_t floor_time_ = 0;
  StallCause floor_cause_ = StallCause::kNone;

  // Fetch stream.
  uint64_t fetch_time_ = 0;
  uint64_t fetch_line_ = ~0ull;
  // pc >> kFetchPieceShift of the fetch that set fetch_line_ (~0 when
  // unknown: after a redirect and at the start of every Run). A piece is
  // the smaller of an I-cache line and a page, so it lies in one page and
  // one physical line, and page mappings never change: a fetch from the
  // same piece needs no translation.
  uint64_t fetch_piece_ = ~0ull;
  uint32_t fetch_count_ = 0;
  StallCause pending_fetch_cause_ = StallCause::kNone;

  // Issue times of the last kIssueQueueDepth instructions (run-ahead
  // bound), a ring whose next slot holds the oldest. recent_pos_ wraps at
  // 2^32, which keeps the ring in step only for a power-of-two size.
  static_assert(std::has_single_bit(kIssueQueueDepth));
  uint64_t recent_issue_[kIssueQueueDepth] = {};
  uint32_t recent_pos_ = 0;

  ExitReason exit_ = ExitReason::kHalted;
  bool exit_after_ = false;  // halt/yield: finish accounting, then stop
  CpuStats stats_;
};

}  // namespace dcpi

#endif  // SRC_CPU_CPU_H_
