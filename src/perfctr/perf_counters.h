// Performance-counter model (Section 4.1).
//
// Each hardware counter counts one event type and raises a high-priority
// interrupt on overflow; the interrupt is delivered `skid_cycles` (six on
// the 21164) after the overflow and samples the PC at the head of the issue
// queue at delivery time. The inter-interrupt period is re-randomized after
// every interrupt with the Carta minimal-standard generator (Section 4.1.1,
// default uniform in [60K, 64K] for CYCLES).
//
// Deliveries that would land inside PALcode or inside the handler itself
// are deferred to the end of the uninterruptible window and attributed to
// the next instruction to reach the head of the queue — the paper's blind
// spots (Section 4.1.3).
//
// A counter can time-multiplex several event types at a fine grain (the
// paper's "mux" configuration); ActiveFraction() exposes the duty-cycle
// correction the analysis tools apply.
//
// The issue horizon (PerfMonitor::issue_horizon) is the next delivery the
// counters can make: the earlier of the first pending event delivery and
// the next CYCLES overflow plus skid, raised to the end of the blind spot,
// or 0 while a wide or double sample waits for the next issue group.
// Every call that can move one of those inputs recomputes it.

#ifndef SRC_PERFCTR_PERF_COUNTERS_H_
#define SRC_PERFCTR_PERF_COUNTERS_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <queue>
#include <tuple>
#include <vector>

#include "src/cpu/perf_monitor.h"
#include "src/perfctr/sample_sink.h"
#include "src/support/rng.h"

namespace dcpi {

struct CounterSpec {
  // Events this counter rotates through; a single entry means no
  // multiplexing. Empty specs are invalid.
  std::vector<EventType> events;
  uint64_t period_lo = 0;
  uint64_t period_hi = 0;
};

struct PerfCountersConfig {
  std::vector<CounterSpec> counters;
  uint64_t skid_cycles = 6;
  uint64_t mux_interval_cycles = 333'000;  // ~1ms at 333 MHz
  uint32_t rng_seed = 1;

  // Section 7's "double sampling" extension: after each CYCLES sample, a
  // second interrupt fires immediately on return, capturing the *next*
  // head-of-queue PC as well. The (first, second) PC pairs are edge
  // samples: for a conditional branch they directly observe which way it
  // went, something flow propagation can only infer.
  bool double_sampling = false;
  uint64_t double_sample_cost = 120;  // extra handler cycles per pair

  // ProfileMe-style memory sampling: this fraction of delivered samples
  // become wide records (src/perfctr/wide_sample.h) that bypass the
  // driver's hash table. The chooser is a dedicated RNG, never the Carta
  // period randomizer, so 0.0 draws nothing and the sample stream — and
  // every downstream byte — is identical to a build without the feature.
  double mem_fraction = 0.0;

  // The paper's three measured configurations.
  static PerfCountersConfig Cycles();    // CYCLES only
  static PerfCountersConfig Default();   // CYCLES + IMISS
  static PerfCountersConfig Mux();       // CYCLES + mux(IMISS, DMISS, BRANCHMP)

  // Shrinks every counter period by `factor` (used by analysis benches to
  // gather dense samples from short simulations).
  PerfCountersConfig WithPeriodScale(double factor) const;
};

struct PerfCountersStats {
  uint64_t samples[kNumEventTypes] = {};
  uint64_t deferred_deliveries = 0;  // landed in a blind spot
  uint64_t handler_cycles = 0;       // total cycles charged for interrupts
  // handler_cycles split for the Table 4 attribution: cycles spent inside
  // the driver's interrupt handler (the sink) vs the Section 7 double-
  // sampling extension's second interrupt. sink + double_sample == total.
  uint64_t sink_cycles = 0;
  uint64_t double_sample_cycles = 0;
  // Of samples[], how many were delivered as wide records.
  uint64_t wide_samples = 0;
};

class PerfCounters : public PerfMonitor {
 public:
  PerfCounters(uint32_t cpu_id, const PerfCountersConfig& config, SampleSink* sink);

  // PerfMonitor interface (called by the CPU).
  uint64_t OnIssue(uint32_t pid, uint64_t pc, uint64_t t_issue) override;
  void OnEvent(EventType type, uint64_t cycle) override;
  void OnPalWindow(uint64_t start, uint64_t end) override;
  void OnDataAccess(uint32_t pid, uint64_t pc, uint64_t vaddr,
                    uint32_t latency_cycles, bool dcache_miss, bool board_miss,
                    bool dtb_miss) override;

  // Fraction of time the given event was being counted (1.0 unless the
  // event sits in a multiplexed counter). Tools divide sample counts by
  // this to compare events fairly.
  double ActiveFraction(EventType type) const;

  // Mean sampling period for the event (for converting sample counts to
  // cycles/events). 0 if the event is not monitored.
  double MeanPeriod(EventType type) const;

  bool Monitors(EventType type) const;

  const PerfCountersStats& stats() const { return stats_; }

  // Edge samples collected when double_sampling is on:
  // (pid, first_pc, second_pc) -> count.
  using EdgeSampleMap = std::map<std::tuple<uint32_t, uint64_t, uint64_t>, uint64_t>;
  const EdgeSampleMap& edge_samples() const { return edge_samples_; }

 private:
  struct HwCounter {
    CounterSpec spec;
    size_t active_index = 0;  // which event in `events` is live
    uint64_t count = 0;       // events since last overflow
    uint64_t period = 0;      // current randomized period
    uint64_t next_rotate_cycle = 0;
  };

  struct PendingDelivery {
    uint64_t cycle;
    EventType event;
    bool operator>(const PendingDelivery& other) const { return cycle > other.cycle; }
  };

  uint64_t NextPeriod(const CounterSpec& spec);
  // Recomputes issue_horizon_ from the pending deliveries, the CYCLES
  // overflow stream, the blind spot and the armed samples.
  void UpdateIssueHorizon();
  void RotateMux(HwCounter* counter, uint64_t cycle);
  HwCounter* CounterFor(EventType type, uint64_t cycle);

  uint32_t cpu_id_;
  PerfCountersConfig config_;
  SampleSink* sink_;
  CartaRng rng_;

  // CYCLES counter state (absolute-cycle overflow stream), if configured.
  bool has_cycles_counter_ = false;
  uint64_t cycles_period_lo_ = 0;
  uint64_t cycles_period_hi_ = 0;
  uint64_t next_cycles_overflow_ = 0;

  std::vector<HwCounter> event_counters_;
  std::priority_queue<PendingDelivery, std::vector<PendingDelivery>,
                      std::greater<PendingDelivery>>
      pending_;
  uint64_t blind_until_ = 0;
  PerfCountersStats stats_;

  // Double-sampling state: armed after a CYCLES delivery, consumed by the
  // next issue event.
  bool edge_armed_ = false;
  uint32_t edge_pid_ = 0;
  uint64_t edge_from_pc_ = 0;
  EdgeSampleMap edge_samples_;

  // Wide-sample state: armed at delivery (instead of a narrow sample),
  // data fields filled by OnDataAccess if the sampled instruction is a
  // load, resolved to the sink at the next issue event. The chooser RNG is
  // dedicated so mem_fraction == 0 consumes no draws from any stream.
  SplitMix64 wide_rng_;
  bool wide_armed_ = false;
  WideSampleRecord wide_record_;
};

}  // namespace dcpi

#endif  // SRC_PERFCTR_PERF_COUNTERS_H_
