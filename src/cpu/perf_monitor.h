// Interface between the CPU and the performance-counter subsystem.
//
// The CPU reports issue events and discrete microarchitectural events; the
// monitor decides when counters overflow, where the skidded sample lands,
// and how many cycles the interrupt handler steals from the CPU.
//
// Like the hardware, which counts for free and costs software only at an
// overflow (Section 4.1), the monitor is paid per sample, not per issue
// group: it publishes an issue horizon, the earliest issue time at which
// OnIssue can do anything, and the CPU calls OnIssue only from there on.

#ifndef SRC_CPU_PERF_MONITOR_H_
#define SRC_CPU_PERF_MONITOR_H_

#include <cstdint>

#include "src/cpu/event.h"

namespace dcpi {

class PerfMonitor {
 public:
  virtual ~PerfMonitor() = default;

  // The earliest issue time at which OnIssue may deliver, resolve or
  // charge anything. For an issue group that issues earlier, OnIssue would
  // return t_issue and change no state, so the CPU skips the call. 0 (the
  // default) asks for every issue group; a monitor that publishes a
  // horizon must lower it whenever an OnEvent or OnPalWindow call could
  // make an earlier OnIssue act.
  uint64_t issue_horizon() const { return issue_horizon_; }

  // A new issue group led by the instruction at `pc` (process `pid`)
  // issues at `t_issue`, and that instruction is the head of the issue
  // queue up to then. Any counter overflow whose (skid-adjusted) delivery
  // lands at or before `t_issue` samples this pc. Called only when
  // `t_issue >= issue_horizon()`, so the monitor does not see every head
  // interval. Returns the adjusted issue time (>= t_issue) after charging
  // interrupt handler cycles to the CPU.
  virtual uint64_t OnIssue(uint32_t pid, uint64_t pc, uint64_t t_issue) = 0;

  // A discrete event occurred at `cycle` (event clocks may slightly precede
  // the issue clock: fetch runs ahead).
  virtual void OnEvent(EventType type, uint64_t cycle) = 0;

  // The load at `pc` (process `pid`) read `vaddr` and was satisfied after
  // `latency_cycles` by the level the miss bits describe. Called after the
  // same instruction's issue, so a monitor that armed a wide sample at
  // delivery can fill in the data fields. Default no-op: monitors that do
  // not implement ProfileMe-style sampling ignore it.
  virtual void OnDataAccess(uint32_t pid, uint64_t pc, uint64_t vaddr,
                            uint32_t latency_cycles, bool dcache_miss,
                            bool board_miss, bool dtb_miss) {
    (void)pid;
    (void)pc;
    (void)vaddr;
    (void)latency_cycles;
    (void)dcache_miss;
    (void)board_miss;
    (void)dtb_miss;
  }

  // The CPU is in PALcode / uninterruptible code for [start, end); sample
  // deliveries in this window are deferred past `end` (the paper's blind
  // spots, Section 4.1.3).
  virtual void OnPalWindow(uint64_t start, uint64_t end) = 0;

 protected:
  uint64_t issue_horizon_ = 0;
};

}  // namespace dcpi

#endif  // SRC_CPU_PERF_MONITOR_H_
