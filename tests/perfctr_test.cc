// Performance-counter tests: overflow cadence, randomized periods, the
// 6-cycle skid, blind-spot deferral, event counters, and multiplexing.

#include <gtest/gtest.h>

#include "src/perfctr/perf_counters.h"

namespace dcpi {
namespace {

// A sink recording every delivered sample.
class RecordingSink : public SampleSink {
 public:
  struct Sample {
    uint32_t pid;
    uint64_t pc;
    EventType event;
  };

  explicit RecordingSink(uint64_t cost = 0) : cost_(cost) {}

  uint64_t DeliverSample(uint32_t cpu_id, uint32_t pid, uint64_t pc,
                         EventType event) override {
    (void)cpu_id;
    samples_.push_back({pid, pc, event});
    return cost_;
  }

  const std::vector<Sample>& samples() const { return samples_; }

 private:
  uint64_t cost_;
  std::vector<Sample> samples_;
};

PerfCountersConfig CyclesConfig(uint64_t lo, uint64_t hi) {
  PerfCountersConfig config;
  config.counters.push_back({{EventType::kCycles}, lo, hi});
  return config;
}

TEST(PerfCounters, CyclesSampleRateMatchesPeriod) {
  RecordingSink sink;
  PerfCounters counters(0, CyclesConfig(1000, 1000), &sink);
  // Simulate 100K cycles of issue activity, one instruction per 10 cycles.
  uint64_t t = 0;
  for (int i = 0; i < 10000; ++i) {
    uint64_t next = t + 10;
    counters.OnIssue(1, 0x1000 + (i % 64) * 4, next);
    t = next;
  }
  // 100K cycles at period 1000 => ~100 samples.
  EXPECT_NEAR(static_cast<double>(sink.samples().size()), 100.0, 3.0);
}

TEST(PerfCounters, RandomizedPeriodsVary) {
  RecordingSink sink;
  PerfCounters counters(0, CyclesConfig(100, 200), &sink);
  uint64_t t = 0;
  std::vector<uint64_t> deltas;
  uint64_t last = 0;
  for (int i = 0; i < 5000; ++i) {
    uint64_t next = t + 1;
    counters.OnIssue(1, 0x1000, next);
    if (sink.samples().size() > deltas.size()) {
      deltas.push_back(next - last);
      last = next;
    }
    t = next;
  }
  // Distinct inter-sample gaps (randomized), all within [100, 206ish].
  ASSERT_GT(deltas.size(), 10u);
  uint64_t min_delta = deltas[1], max_delta = deltas[1];
  for (size_t i = 1; i < deltas.size(); ++i) {
    min_delta = std::min(min_delta, deltas[i]);
    max_delta = std::max(max_delta, deltas[i]);
  }
  EXPECT_GE(min_delta, 100u);
  EXPECT_LE(max_delta, 210u);
  EXPECT_GT(max_delta - min_delta, 20u);  // genuinely randomized
}

TEST(PerfCounters, SkidAttributesToLaterHead) {
  // An overflow at cycle 1000 delivers at 1006; if instruction A issues at
  // 1003 and B at 1010, the sample lands on B (the head at delivery).
  RecordingSink sink;
  PerfCounters counters(0, CyclesConfig(1000, 1000), &sink);
  counters.OnIssue(1, 0xA000, 1003);
  EXPECT_TRUE(sink.samples().empty());
  counters.OnIssue(1, 0xB000, 1010);
  ASSERT_EQ(sink.samples().size(), 1u);
  EXPECT_EQ(sink.samples()[0].pc, 0xB000u);
}

TEST(PerfCounters, HandlerCostStretchesIssueTime) {
  RecordingSink sink(/*cost=*/400);
  PerfCounters counters(0, CyclesConfig(1000, 1000), &sink);
  uint64_t adjusted = counters.OnIssue(1, 0xA000, 2000);
  // The first delivery at 1006 costs 400 cycles, stretching the stall to
  // 2400 — which lets the second overflow's delivery (2006) land inside
  // the same head interval and charge another 400.
  EXPECT_EQ(adjusted, 2800u);
  EXPECT_EQ(counters.stats().handler_cycles, 800u);
}

TEST(PerfCounters, BlindSpotDefersDelivery) {
  RecordingSink sink;
  PerfCounters counters(0, CyclesConfig(1000, 1000), &sink);
  // PAL window covers the delivery point 1006.
  counters.OnPalWindow(900, 1500);
  counters.OnIssue(1, 0xA000, 1200);  // delivery deferred past 1500
  EXPECT_TRUE(sink.samples().empty());
  counters.OnIssue(1, 0xB000, 1600);
  ASSERT_EQ(sink.samples().size(), 1u);
  EXPECT_EQ(sink.samples()[0].pc, 0xB000u);  // attributed after the window
  EXPECT_EQ(counters.stats().deferred_deliveries, 1u);
}

TEST(PerfCounters, EventCounterOverflowsOnNthEvent) {
  PerfCountersConfig config;
  config.counters.push_back({{EventType::kImiss}, 10, 10});
  RecordingSink sink;
  PerfCounters counters(0, config, &sink);
  for (int i = 0; i < 25; ++i) counters.OnEvent(EventType::kImiss, 100 + i);
  counters.OnIssue(1, 0xC000, 10000);
  EXPECT_EQ(sink.samples().size(), 2u);  // 25 events / period 10
  for (const auto& sample : sink.samples()) {
    EXPECT_EQ(sample.event, EventType::kImiss);
  }
}

TEST(PerfCounters, MuxRotatesEventTypes) {
  PerfCountersConfig config = PerfCountersConfig::Mux();
  config.mux_interval_cycles = 1000;
  RecordingSink sink;
  PerfCounters counters(0, config, &sink);
  EXPECT_NEAR(counters.ActiveFraction(EventType::kImiss), 1.0 / 3, 1e-12);
  EXPECT_NEAR(counters.ActiveFraction(EventType::kDmiss), 1.0 / 3, 1e-12);
  EXPECT_EQ(counters.ActiveFraction(EventType::kCycles), 1.0);
  EXPECT_TRUE(counters.Monitors(EventType::kBranchMp));
  EXPECT_FALSE(PerfCountersConfig::Default().counters.empty());

  // Early on, IMISS is live and DMISS is ignored; after rotation the
  // reverse holds.
  for (int i = 0; i < 5000; ++i) counters.OnEvent(EventType::kDmiss, 10);
  counters.OnIssue(1, 0x1, 20);
  size_t early = sink.samples().size();
  EXPECT_EQ(early, 0u);  // DMISS inactive in the first window
  for (int i = 0; i < 5000; ++i) counters.OnEvent(EventType::kDmiss, 1500);
  counters.OnIssue(1, 0x1, 3000);
  EXPECT_GT(sink.samples().size(), 0u);  // rotated to DMISS
}

TEST(PerfCounters, PeriodScalingShrinksPeriods) {
  PerfCountersConfig config = PerfCountersConfig::Cycles().WithPeriodScale(1.0 / 16);
  EXPECT_EQ(config.counters[0].period_lo, 60 * 1024 / 16);
  EXPECT_EQ(config.counters[0].period_hi, 64 * 1024 / 16);
}

}  // namespace
}  // namespace dcpi
