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

#include <cstdint>

#include "src/cpu/branch_predictor.h"
#include "src/cpu/exec_context.h"
#include "src/cpu/ground_truth.h"
#include "src/cpu/perf_monitor.h"
#include "src/cpu/pipeline_model.h"
#include "src/memory/memory_system.h"

namespace dcpi {

struct CpuConfig {
  PipelineConfig pipeline;
  MemoryConfig memory;
  uint32_t predictor_entries = 2048;
  uint32_t ras_entries = 12;
  uint32_t issue_queue_depth = 8;  // bounds fetch run-ahead
  uint64_t pal_nop_cycles = 200;   // duration of a call_pal "nop" window
  bool flush_tlb_on_switch = true;
};

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
  Cpu(uint32_t cpu_id, const CpuConfig& config);

  // Both optional; may be set/cleared between runs.
  void set_monitor(PerfMonitor* monitor) { monitor_ = monitor; }
  void set_ground_truth(GroundTruth* ground_truth) { ground_truth_ = ground_truth; }
  const GroundTruth* ground_truth() const { return ground_truth_; }

  // Runs `ctx` until it halts, yields, exceeds `max_cycles` of CPU time, or
  // executes `max_instructions`. Time continues from the previous run.
  RunResult Run(ExecContext& ctx, uint64_t max_cycles,
                uint64_t max_instructions = ~0ull);

  // Kernel notification before switching to a different context.
  void OnContextSwitch();

  // Current CPU time (cycle of the last issue event).
  uint64_t now() const { return last_issue_time_; }

  // Advances time without executing (used only by tests; the kernel runs a
  // real idle loop instead).
  void AdvanceIdle(uint64_t cycles) { last_issue_time_ += cycles; }

  uint32_t cpu_id() const { return cpu_id_; }
  MemorySystem& memory() { return memory_; }
  const MemorySystem& memory() const { return memory_; }
  const BranchPredictor& predictor() const { return predictor_; }
  const CpuStats& stats() const { return stats_; }
  const PipelineModel& model() const { return model_; }

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

  // What the issue logic needs of an opcode, computed once from model_ so
  // the simulator and the analysis still share one PipelineModel.
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
  CpuConfig config_;
  PipelineModel model_;
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
  // pc >> fetch_piece_shift_ of the fetch that set fetch_line_ (~0 when
  // unknown: after a redirect and at the start of every Run). A piece is
  // the smaller of an I-cache line and a page, so it lies in one page and
  // one physical line, and page mappings never change: a fetch from the
  // same piece needs no translation.
  uint64_t fetch_piece_ = ~0ull;
  unsigned fetch_piece_shift_ = 0;
  uint32_t fetch_count_ = 0;
  StallCause pending_fetch_cause_ = StallCause::kNone;

  // Issue times of the last issue_queue_depth instructions (run-ahead bound).
  static constexpr int kMaxQueueDepth = 32;
  uint64_t recent_issue_[kMaxQueueDepth] = {};
  uint32_t recent_pos_ = 0;

  ExitReason exit_ = ExitReason::kHalted;
  bool exit_after_ = false;  // halt/yield: finish accounting, then stop
  CpuStats stats_;
};

}  // namespace dcpi

#endif  // SRC_CPU_CPU_H_
