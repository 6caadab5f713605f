// The performance counters' issue horizon: the CPU calls OnIssue only for
// issue groups at or past PerfMonitor::issue_horizon(), the earliest time
// a sample can be due. The horizon must be exact (a skipped call would have
// done nothing, so every simulated byte matches a run that calls on every
// group) and must actually skip (calls scale with samples, not with issue
// groups).

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "src/perfctr/perf_counters.h"
#include "src/workloads/workloads.h"
#include "tests/sim_digest.h"

namespace dcpi {
namespace {

// Forwards every call to a System's own PerfCounters. With `republish`
// off it leaves its horizon at 0, so the CPU calls OnIssue on every issue
// group, as it did before the horizon existed; with it on, it publishes the
// counters' horizon after every call, so the CPU skips exactly as it does
// for the counters themselves. Either way it counts the OnIssue calls.
class Forwarder : public PerfMonitor {
 public:
  Forwarder(PerfCounters* inner, bool republish) : inner_(inner), republish_(republish) {
    Sync();
  }

  uint64_t OnIssue(uint32_t pid, uint64_t pc, uint64_t t_issue) override {
    ++calls_;
    uint64_t adjusted = inner_->OnIssue(pid, pc, t_issue);
    Sync();
    return adjusted;
  }
  void OnEvent(EventType type, uint64_t cycle) override {
    inner_->OnEvent(type, cycle);
    Sync();
  }
  void OnDataAccess(uint32_t pid, uint64_t pc, uint64_t vaddr, uint32_t latency_cycles,
                    bool dcache_miss, bool board_miss, bool dtb_miss) override {
    inner_->OnDataAccess(pid, pc, vaddr, latency_cycles, dcache_miss, board_miss,
                         dtb_miss);
    Sync();
  }
  void OnPalWindow(uint64_t start, uint64_t end) override {
    inner_->OnPalWindow(start, end);
    Sync();
  }

  uint64_t calls() const { return calls_; }

 private:
  void Sync() {
    if (republish_) issue_horizon_ = inner_->issue_horizon();
  }

  PerfCounters* inner_;
  bool republish_;
  uint64_t calls_ = 0;
};

// A process that spends most of its time in PAL windows (call_pal 2), so
// deliveries land in blind spots and are deferred, between loads and
// stores that keep the data path busy.
Workload PalWindowWorkload(WorkloadFactory* factory) {
  std::shared_ptr<ExecutableImage> image = factory->Build("palwin", R"(
        .text
        .proc main
        li    r9, 4000
        lia   r1, buf
loop:   call_pal 2
        ldq   r2, 0(r1)
        addq  r2, r9, r2
        stq   r2, 8(r1)
        subq  r9, 1, r9
        bne   r9, loop
        halt
        .endp
        .data
buf:    .space 64
)");
  Workload workload = factory->Timesharing(2);
  workload.name = "palwin";
  workload.processes.push_back({"palwin", {image}, "main"});
  return workload;
}

struct Scenario {
  std::string name;
  ProfilingMode mode;
  uint32_t num_cpus;
  double mem_fraction = 0.0;
  bool double_sampling = false;  // with free_profiling, as Section 7's bench
  bool pal_windows = false;
};

void PrintTo(const Scenario& scenario, std::ostream* os) { *os << scenario.name; }

// The parts of a run the horizon must not move.
struct RunDigests {
  std::string profiles, counters, cpus, result;
  uint64_t onissue_calls = 0;  // summed over the CPUs' forwarders
  uint64_t issue_groups = 0;
  uint64_t samples = 0;
  uint64_t deferred = 0;
};

enum class Attach { kNone, kForwardAll, kRepublish };

RunDigests RunScenario(const Scenario& scenario, Attach attach) {
  WorkloadFactory factory(/*scale=*/0.02);
  Workload workload = scenario.pal_windows ? PalWindowWorkload(&factory)
                                           : factory.Timesharing(2);
  SystemConfig config;
  config.kernel.num_cpus = scenario.num_cpus;
  config.mode = scenario.mode;
  config.period_scale = 1.0 / 16;
  config.mem_fraction = scenario.mem_fraction;
  config.double_sampling = scenario.double_sampling;
  config.free_profiling = scenario.double_sampling;
  System system(config);
  EXPECT_TRUE(workload.Instantiate(&system).ok());
  std::vector<std::unique_ptr<Forwarder>> forwarders;
  if (attach != Attach::kNone) {
    for (uint32_t cpu = 0; cpu < scenario.num_cpus; ++cpu) {
      forwarders.push_back(
          std::make_unique<Forwarder>(system.counters(cpu), attach == Attach::kRepublish));
      system.kernel().SetMonitor(cpu, forwarders.back().get());
    }
  }
  SystemResult result = system.Run(/*max_cycles=*/3'000'000);
  EXPECT_FALSE(result.had_error);

  RunDigests digests;
  digests.profiles = PartDigest([&](Fnv1a64* h) { DigestProfiles(*system.daemon(), h); });
  digests.counters = PartDigest([&](Fnv1a64* h) { DigestCounters(system, h); });
  digests.cpus = PartDigest([&](Fnv1a64* h) { DigestCpus(system.kernel(), h); });
  digests.result = PartDigest([&](Fnv1a64* h) { DigestResult(result, h); });
  for (const auto& forwarder : forwarders) digests.onissue_calls += forwarder->calls();
  for (uint32_t cpu = 0; cpu < scenario.num_cpus; ++cpu) {
    digests.issue_groups += system.kernel().cpu(cpu).stats().issue_groups;
    const PerfCountersStats& stats = system.counters(cpu)->stats();
    for (uint64_t samples : stats.samples) digests.samples += samples;
    digests.deferred += stats.deferred_deliveries;
  }
  return digests;
}

class IssueHorizonRun : public ::testing::TestWithParam<Scenario> {};

TEST_P(IssueHorizonRun, SkippedCallsChangeNothing) {
  const Scenario& scenario = GetParam();
  RunDigests gated = RunScenario(scenario, Attach::kNone);
  RunDigests every = RunScenario(scenario, Attach::kForwardAll);
  // The forwarder saw every issue group: nothing was skipped.
  EXPECT_EQ(every.onissue_calls, every.issue_groups);
  EXPECT_GT(gated.samples, 100u);
  EXPECT_EQ(gated.profiles, every.profiles);
  EXPECT_EQ(gated.counters, every.counters);
  EXPECT_EQ(gated.cpus, every.cpus);
  EXPECT_EQ(gated.result, every.result);
  if (scenario.pal_windows) {
    EXPECT_GT(gated.deferred, 0u);
  }
}

TEST_P(IssueHorizonRun, CallsScaleWithSamples) {
  const Scenario& scenario = GetParam();
  RunDigests gated = RunScenario(scenario, Attach::kNone);
  RunDigests republished = RunScenario(scenario, Attach::kRepublish);
  EXPECT_EQ(gated.profiles, republished.profiles);
  EXPECT_EQ(gated.counters, republished.counters);
  EXPECT_EQ(gated.cpus, republished.cpus);
  EXPECT_EQ(gated.result, republished.result);
  // Each call past the horizon delivers a sample, or resolves the wide or
  // double sample the previous delivery armed.
  const uint64_t per_sample = scenario.double_sampling ? 3 : 2;
  EXPECT_GT(republished.onissue_calls, 0u);
  EXPECT_LE(republished.onissue_calls, per_sample * republished.samples);
  EXPECT_LT(republished.onissue_calls * 100, republished.issue_groups);
}

INSTANTIATE_TEST_SUITE_P(
    Modes, IssueHorizonRun,
    ::testing::Values(Scenario{"cycles_1cpu", ProfilingMode::kCycles, 1},
                      Scenario{"default_2cpu", ProfilingMode::kDefault, 2},
                      Scenario{"mux_1cpu", ProfilingMode::kMux, 1},
                      Scenario{"mux_mem_2cpu", ProfilingMode::kMux, 2, 0.25},
                      Scenario{"default_mem_1cpu", ProfilingMode::kDefault, 1, 0.25},
                      Scenario{"double_1cpu", ProfilingMode::kCycles, 1, 0.0, true},
                      Scenario{"double_mem_2cpu", ProfilingMode::kDefault, 2, 0.25, true},
                      Scenario{"pal_1cpu", ProfilingMode::kDefault, 1, 0.0, false, true},
                      Scenario{"pal_mux_2cpu", ProfilingMode::kMux, 2, 0.25, true, true}),
    [](const ::testing::TestParamInfo<Scenario>& param) { return param.param.name; });

PerfCountersConfig CyclesConfig(uint64_t period) {
  PerfCountersConfig config;
  config.counters.push_back({{EventType::kCycles}, period, period});
  return config;
}

TEST(IssueHorizon, StartsAtTheFirstOverflowPlusSkid) {
  PerfCounters counters(0, CyclesConfig(1000), nullptr);
  EXPECT_EQ(counters.issue_horizon(), 1006u);
  // Below the horizon OnIssue returns the issue time and moves nothing.
  EXPECT_EQ(counters.OnIssue(1, 0xA000, 1005), 1005u);
  EXPECT_EQ(counters.issue_horizon(), 1006u);
  // At it, the sample is delivered and the horizon moves to the next one.
  EXPECT_EQ(counters.OnIssue(1, 0xA000, 1006), 1006u);
  EXPECT_EQ(counters.stats().samples[static_cast<int>(EventType::kCycles)], 1u);
  EXPECT_EQ(counters.issue_horizon(), 2006u);
}

TEST(IssueHorizon, NothingMonitoredMeansNeverCall) {
  PerfCounters counters(0, PerfCountersConfig(), nullptr);
  EXPECT_EQ(counters.issue_horizon(), UINT64_MAX);
}

TEST(IssueHorizon, EventOverflowLowersItToCyclePlusSkid) {
  PerfCountersConfig config = CyclesConfig(1000);
  config.counters.push_back({{EventType::kImiss}, 10, 10});
  PerfCounters counters(0, config, nullptr);
  for (int i = 0; i < 9; ++i) counters.OnEvent(EventType::kImiss, 100);
  EXPECT_EQ(counters.issue_horizon(), 1006u);  // no overflow yet
  counters.OnEvent(EventType::kImiss, 100);    // the 10th overflows
  EXPECT_EQ(counters.issue_horizon(), 106u);
  counters.OnIssue(1, 0xA000, 106);
  EXPECT_EQ(counters.stats().samples[static_cast<int>(EventType::kImiss)], 1u);
  EXPECT_EQ(counters.issue_horizon(), 1006u);
}

TEST(IssueHorizon, PalWindowRaisesItToTheWindowEnd) {
  PerfCounters counters(0, CyclesConfig(1000), nullptr);
  counters.OnPalWindow(900, 1500);
  EXPECT_EQ(counters.issue_horizon(), 1500u);
  // A window that ends before the next delivery leaves it alone.
  counters.OnPalWindow(10, 20);
  EXPECT_EQ(counters.issue_horizon(), 1500u);
}

TEST(IssueHorizon, ArmedEdgeSampleZeroesIt) {
  PerfCountersConfig config = CyclesConfig(100);
  config.double_sampling = true;
  config.double_sample_cost = 0;
  PerfCounters counters(0, config, nullptr);
  counters.OnIssue(1, 0xA000, 106);  // delivers and arms the second half
  EXPECT_EQ(counters.issue_horizon(), 0u);
  counters.OnIssue(1, 0xB000, 107);  // the next head completes the pair
  EXPECT_EQ(counters.edge_samples().size(), 1u);
  EXPECT_EQ(counters.issue_horizon(), 206u);
}

TEST(IssueHorizon, ArmedWideSampleZeroesIt) {
  PerfCountersConfig config = CyclesConfig(100);
  config.mem_fraction = 1.0;
  PerfCounters counters(0, config, nullptr);
  counters.OnIssue(1, 0xA000, 106);  // delivers as a wide record, armed
  EXPECT_EQ(counters.issue_horizon(), 0u);
  EXPECT_EQ(counters.stats().wide_samples, 0u);
  counters.OnIssue(1, 0xB000, 107);  // resolved at the next issue group
  EXPECT_EQ(counters.stats().wide_samples, 1u);
  EXPECT_EQ(counters.issue_horizon(), 206u);
}

}  // namespace
}  // namespace dcpi
