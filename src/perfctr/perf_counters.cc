#include "src/perfctr/perf_counters.h"

#include <algorithm>
#include <cassert>

namespace dcpi {

PerfCountersConfig PerfCountersConfig::Cycles() {
  PerfCountersConfig config;
  config.counters.push_back({{EventType::kCycles}, 60 * 1024, 64 * 1024});
  return config;
}

PerfCountersConfig PerfCountersConfig::Default() {
  PerfCountersConfig config = Cycles();
  config.counters.push_back({{EventType::kImiss}, 3 * 1024, 4 * 1024});
  return config;
}

PerfCountersConfig PerfCountersConfig::Mux() {
  PerfCountersConfig config = Cycles();
  config.counters.push_back(
      {{EventType::kImiss, EventType::kDmiss, EventType::kBranchMp}, 2 * 1024, 3 * 1024});
  return config;
}

PerfCountersConfig PerfCountersConfig::WithPeriodScale(double factor) const {
  PerfCountersConfig scaled = *this;
  for (CounterSpec& spec : scaled.counters) {
    spec.period_lo = std::max<uint64_t>(16, static_cast<uint64_t>(spec.period_lo * factor));
    spec.period_hi = std::max<uint64_t>(spec.period_lo + 1,
                                        static_cast<uint64_t>(spec.period_hi * factor));
  }
  return scaled;
}

PerfCounters::PerfCounters(uint32_t cpu_id, const PerfCountersConfig& config,
                           SampleSink* sink)
    : cpu_id_(cpu_id),
      config_(config),
      sink_(sink),
      rng_(config.rng_seed + cpu_id * 7919),
      wide_rng_((static_cast<uint64_t>(config.rng_seed) << 32) ^
                (cpu_id * 0x9e3779b9ull) ^ 0x57494445ull) {
  for (const CounterSpec& spec : config_.counters) {
    assert(!spec.events.empty());
    if (spec.events.size() == 1 && spec.events[0] == EventType::kCycles) {
      has_cycles_counter_ = true;
      cycles_period_lo_ = spec.period_lo;
      cycles_period_hi_ = spec.period_hi;
      next_cycles_overflow_ = NextPeriod(spec);
    } else {
      HwCounter counter;
      counter.spec = spec;
      counter.period = NextPeriod(spec);
      counter.next_rotate_cycle = config_.mux_interval_cycles;
      event_counters_.push_back(counter);
    }
  }
  UpdateIssueHorizon();
}

void PerfCounters::UpdateIssueHorizon() {
  if (wide_armed_ || edge_armed_) {
    issue_horizon_ = 0;  // the next issue group resolves the armed sample
    return;
  }
  uint64_t next = UINT64_MAX;
  if (!pending_.empty()) next = pending_.top().cycle;
  if (has_cycles_counter_) {
    next = std::min(next, next_cycles_overflow_ + kSkidCycles);
  }
  issue_horizon_ = std::max(next, blind_until_);
}

uint64_t PerfCounters::NextPeriod(const CounterSpec& spec) {
  if (spec.period_hi <= spec.period_lo) return std::max<uint64_t>(1, spec.period_lo);
  return rng_.UniformInRange(spec.period_lo, spec.period_hi);
}

void PerfCounters::RotateMux(HwCounter* counter, uint64_t cycle) {
  while (cycle >= counter->next_rotate_cycle) {
    counter->next_rotate_cycle += config_.mux_interval_cycles;
    if (counter->spec.events.size() > 1) {
      counter->active_index = (counter->active_index + 1) % counter->spec.events.size();
      counter->count = 0;
      counter->period = NextPeriod(counter->spec);
    }
  }
}

PerfCounters::HwCounter* PerfCounters::CounterFor(EventType type, uint64_t cycle) {
  for (HwCounter& counter : event_counters_) {
    RotateMux(&counter, cycle);
    if (counter.spec.events[counter.active_index] == type) return &counter;
  }
  return nullptr;
}

void PerfCounters::OnEvent(EventType type, uint64_t cycle) {
  HwCounter* counter = CounterFor(type, cycle);
  if (counter == nullptr) return;
  if (++counter->count >= counter->period) {
    counter->count = 0;
    counter->period = NextPeriod(counter->spec);
    pending_.push({cycle + kSkidCycles, type});
    UpdateIssueHorizon();
  }
}

void PerfCounters::OnPalWindow(uint64_t start, uint64_t end) {
  (void)start;
  blind_until_ = std::max(blind_until_, end);
  UpdateIssueHorizon();
}

uint64_t PerfCounters::OnIssue(uint32_t pid, uint64_t pc, uint64_t t_issue) {
  uint64_t t_adj = t_issue;
  // Resolve a pending wide sample: its data fields (if any) were filled by
  // OnDataAccess during the sampled instruction's execute stage, so by the
  // next issue event the record is complete and is handed to the sink. The
  // handler cost lands here — ProfileMe reads the wide register set out on
  // the interrupt's return path.
  if (wide_armed_) {
    wide_armed_ = false;
    uint64_t cost =
        sink_ != nullptr ? sink_->DeliverWideSample(cpu_id_, wide_record_) : 0;
    ++stats_.samples[static_cast<int>(wide_record_.event)];
    ++stats_.wide_samples;
    stats_.handler_cycles += cost;
    stats_.sink_cycles += cost;
    t_adj += cost;
  }
  // Complete a pending double sample: this instruction is the next head
  // after the sampled one, i.e. the second PC of the pair.
  if (edge_armed_) {
    edge_armed_ = false;
    if (pid == edge_pid_) {
      ++edge_samples_[{pid, edge_from_pc_, pc}];
      t_adj += config_.double_sample_cost;
      stats_.handler_cycles += config_.double_sample_cost;
      stats_.double_sample_cycles += config_.double_sample_cost;
    }
  }
  // Deliver everything that lands at or before the (possibly stretched)
  // issue time of this instruction: it is the head of the queue throughout.
  while (true) {
    // Earliest candidate among pending event deliveries and the CYCLES
    // overflow stream.
    bool have_candidate = false;
    uint64_t candidate_cycle = 0;
    EventType candidate_event = EventType::kCycles;
    bool candidate_from_pending = false;

    if (!pending_.empty()) {
      candidate_cycle = pending_.top().cycle;
      candidate_event = pending_.top().event;
      candidate_from_pending = true;
      have_candidate = true;
    }
    if (has_cycles_counter_) {
      uint64_t cycles_delivery = next_cycles_overflow_ + kSkidCycles;
      if (!have_candidate || cycles_delivery < candidate_cycle) {
        candidate_cycle = cycles_delivery;
        candidate_event = EventType::kCycles;
        candidate_from_pending = false;
        have_candidate = true;
      }
    }
    if (!have_candidate) break;

    uint64_t delivery = std::max(candidate_cycle, blind_until_);
    if (delivery > t_adj) {
      // Lands after this instruction issues: belongs to a later head.
      // CYCLES overflows past t_adj stay implicit in the overflow stream;
      // pending entries just stay queued.
      break;
    }

    if (delivery != candidate_cycle) ++stats_.deferred_deliveries;
    if (candidate_from_pending) {
      pending_.pop();
    } else {
      next_cycles_overflow_ +=
          rng_.UniformInRange(cycles_period_lo_, cycles_period_hi_);
    }
    // A fraction of deliveries become wide records: arm one for this pc
    // instead of recording a narrow sample. The stats and the handler cost
    // are charged at resolve time (the start of the next OnIssue). The
    // chooser is only consulted when the feature is on, so mem_fraction 0
    // leaves every downstream byte untouched.
    if (config_.mem_fraction > 0 &&
        wide_rng_.NextDouble() < config_.mem_fraction && !wide_armed_) {
      wide_armed_ = true;
      wide_record_ = WideSampleRecord{};
      wide_record_.pid = pid;
      wide_record_.pc = pc;
      wide_record_.event = candidate_event;
      blind_until_ = delivery;
      continue;
    }
    uint64_t cost =
        sink_ != nullptr ? sink_->DeliverSample(cpu_id_, pid, pc, candidate_event) : 0;
    ++stats_.samples[static_cast<int>(candidate_event)];
    stats_.handler_cycles += cost;
    stats_.sink_cycles += cost;
    blind_until_ = delivery + cost;
    t_adj += cost;
    if (config_.double_sampling && candidate_event == EventType::kCycles) {
      edge_armed_ = true;
      edge_pid_ = pid;
      edge_from_pc_ = pc;
    }
  }
  UpdateIssueHorizon();
  return t_adj;
}

void PerfCounters::OnDataAccess(uint32_t pid, uint64_t pc, uint64_t vaddr,
                                uint32_t latency_cycles, bool dcache_miss,
                                bool board_miss, bool dtb_miss) {
  // Only the armed pc's own load fills the record: samples are attributed
  // to issue-group leaders, so a wide sample carries data exactly when the
  // sampled instruction itself is a load.
  if (!wide_armed_ || wide_record_.has_data) return;
  if (pid != wide_record_.pid || pc != wide_record_.pc) return;
  wide_record_.has_data = true;
  wide_record_.data_va = vaddr;
  wide_record_.latency = latency_cycles;
  wide_record_.level = board_miss      ? MemLevel::kDram
                       : dcache_miss   ? MemLevel::kBoard
                                       : MemLevel::kL1;
  wide_record_.tlb_miss = dtb_miss;
}

bool PerfCounters::Monitors(EventType type) const {
  if (type == EventType::kCycles) return has_cycles_counter_;
  for (const HwCounter& counter : event_counters_) {
    for (EventType e : counter.spec.events) {
      if (e == type) return true;
    }
  }
  return false;
}

double PerfCounters::ActiveFraction(EventType type) const {
  if (type == EventType::kCycles) return has_cycles_counter_ ? 1.0 : 0.0;
  for (const HwCounter& counter : event_counters_) {
    for (EventType e : counter.spec.events) {
      if (e == type) return 1.0 / static_cast<double>(counter.spec.events.size());
    }
  }
  return 0.0;
}

double PerfCounters::MeanPeriod(EventType type) const {
  if (type == EventType::kCycles) {
    return has_cycles_counter_ ? (cycles_period_lo_ + cycles_period_hi_) / 2.0 : 0.0;
  }
  for (const HwCounter& counter : event_counters_) {
    for (EventType e : counter.spec.events) {
      if (e == type) return (counter.spec.period_lo + counter.spec.period_hi) / 2.0;
    }
  }
  return 0.0;
}

}  // namespace dcpi
