// Concurrency tests for the driver's lock-free collection path: one
// producer thread per CPU hammering DeliverSample against a concurrent
// drainer consuming published overflow buffers (and firing IPI-modeled
// flush requests). Run under ThreadSanitizer by scripts/check.sh — the
// paper's Section 4.2 claim that the interrupt handler needs no
// synchronization is enforced here, not just asserted.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <thread>
#include <vector>

#include "src/driver/driver.h"
#include "src/support/rng.h"

namespace dcpi {
namespace {

struct DrainTally {
  std::mutex mu;
  uint64_t total = 0;
  std::map<uint32_t, uint64_t> per_pid;

  void Add(const std::vector<OverflowRecord>& records) {
    std::lock_guard lock(mu);
    for (const OverflowRecord& r : records) {
      if (r.kind == OverflowRecord::Kind::kWide) {
        total += 1;
        per_pid[r.wide.pid] += 1;
      } else {
        total += r.narrow.count;
        per_pid[r.narrow.key.pid] += r.narrow.count;
      }
    }
  }
};

// N producers + 1 drainer; every delivered sample must be drained exactly
// once (drained counts + hash-table residue == samples delivered).
TEST(DriverConcurrency, NoSampleLostOrDoubleCountedUnderConcurrentDrain) {
  constexpr uint32_t kCpus = 4;
  constexpr uint64_t kSamplesPerCpu = 60'000;

  DriverConfig config;
  config.hash.buckets = 16;       // tiny table: massive eviction traffic
  config.hash.associativity = 2;
  config.overflow_entries = 64;   // tiny buffers: constant publish/claim flips
  DcpiDriver driver(kCpus, config);

  DrainTally tally;
  driver.set_overflow_handler(
      [&](uint32_t, const std::vector<OverflowRecord>& records) { tally.Add(records); });
  driver.SetDrainMode(DrainMode::kConcurrent);

  std::atomic<uint32_t> producers_live{kCpus};
  std::thread drainer([&] {
    // The daemon drain thread's loop, inlined: read the doorbell, sweep,
    // and park on the doorbell after an empty sweep. Every publish rings
    // it, so this hammers the publish-to-wake edge; the main thread's ring
    // after the producers join lets the final empty sweep exit.
    while (true) {
      uint32_t seen = driver.DrainDoorbell();
      size_t consumed = driver.DrainPublished();
      if (consumed == 0) {
        if (producers_live.load(std::memory_order_acquire) == 0) break;
        driver.WaitDrainDoorbell(seen);
      }
    }
  });

  std::vector<std::thread> producers;
  for (uint32_t cpu = 0; cpu < kCpus; ++cpu) {
    producers.emplace_back([&, cpu] {
      SplitMix64 rng(cpu * 977 + 5);
      for (uint64_t i = 0; i < kSamplesPerCpu; ++i) {
        // pid identifies the producer so per-thread conservation can be
        // checked; a wide pc stream keeps the eviction rate high.
        driver.DeliverSample(cpu, cpu + 1, 0x1000 + rng.NextBelow(1 << 14) * 4,
                             EventType::kCycles);
        // Exercise the IPI path from the producer's own slot occasionally.
        if ((i & 0x3fff) == 0x2000) driver.FlushCpu(cpu);
      }
      producers_live.fetch_sub(1, std::memory_order_release);
    });
  }
  // The daemon side also fires asynchronous IPI flush requests mid-run.
  for (int i = 0; i < 8; ++i) {
    driver.RequestFlush();
    std::this_thread::yield();
  }

  for (std::thread& p : producers) p.join();
  driver.RingDrainDoorbell();
  drainer.join();
  driver.SetDrainMode(DrainMode::kInline);
  driver.FlushAll();  // hash-table residue + unpublished active buffers

  EXPECT_EQ(tally.total, static_cast<uint64_t>(kCpus) * kSamplesPerCpu);
  for (uint32_t cpu = 0; cpu < kCpus; ++cpu) {
    EXPECT_EQ(tally.per_pid[cpu + 1], kSamplesPerCpu) << "producer " << cpu;
  }
  EXPECT_EQ(driver.total_samples(), static_cast<uint64_t>(kCpus) * kSamplesPerCpu);
}

// A slow drainer must cause backpressure (publish_waits), never loss.
TEST(DriverConcurrency, SlowDrainerCausesBackpressureNotLoss) {
  DriverConfig config;
  config.hash.buckets = 1;
  config.hash.associativity = 2;
  config.overflow_entries = 16;
  DcpiDriver driver(1, config);

  DrainTally tally;
  driver.set_overflow_handler(
      [&](uint32_t, const std::vector<OverflowRecord>& records) { tally.Add(records); });
  driver.SetDrainMode(DrainMode::kConcurrent);

  constexpr uint64_t kSamples = 20'000;
  std::atomic<bool> producer_done{false};
  std::atomic<uint64_t> benchmark_sink{0};  // keeps the dawdle loop alive
  std::thread producer([&] {
    for (uint64_t i = 0; i < kSamples; ++i) {
      driver.DeliverSample(0, 1, 0x1000 + (i % 4096) * 4, EventType::kCycles);
    }
    producer_done.store(true, std::memory_order_release);
  });
  std::thread drainer([&] {
    SplitMix64 rng(3);
    while (true) {
      size_t consumed = driver.DrainPublished();
      if (consumed == 0 && producer_done.load(std::memory_order_acquire)) break;
      // Deliberately dawdle so both buffers fill and the producer must wait.
      uint64_t sink = 0;
      for (uint64_t spin = rng.NextBelow(5000); spin > 0; --spin) sink += spin;
      benchmark_sink.fetch_add(sink, std::memory_order_relaxed);
    }
  });
  producer.join();
  drainer.join();
  driver.SetDrainMode(DrainMode::kInline);
  driver.FlushAll();

  EXPECT_EQ(tally.total, kSamples);  // backpressure dropped nothing
}

// Single-threaded inline mode must behave exactly like the historical
// synchronous callback: full buffers are handed over during delivery.
TEST(DriverConcurrency, InlineModeHandsFullBuffersSynchronously) {
  DriverConfig config;
  config.hash.buckets = 1;
  config.hash.associativity = 2;
  config.overflow_entries = 4;
  DcpiDriver driver(1, config);
  size_t calls_during_delivery = 0;
  driver.set_overflow_handler(
      [&](uint32_t, const std::vector<OverflowRecord>& records) {
        ++calls_during_delivery;
        EXPECT_EQ(records.size(), 4u);
      });
  for (uint64_t k = 0; k < 40; ++k) {
    driver.DeliverSample(0, 1, 0x1000 + k * 8, EventType::kCycles);
  }
  EXPECT_GT(calls_during_delivery, 0u);
}

}  // namespace
}  // namespace dcpi
