#include "src/support/parallel_for.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace dcpi {
namespace {

size_t Workers(int jobs, size_t n) {
  return std::min(n, static_cast<size_t>(jobs < 1 ? HardwareConcurrency() : jobs));
}

// Runs ParallelFor with bodies that wait for each other, so the call only
// finishes if min(jobs, n) bodies are in flight at once. Returns the
// number of distinct threads that ran a body, or 0 if the bodies gave up
// waiting (too few threads).
size_t RendezvousThreads(int jobs, size_t n) {
  const size_t expected = Workers(jobs, n);
  std::atomic<size_t> arrived{0};
  std::atomic<bool> timed_out{false};
  std::vector<std::thread::id> ids(n);
  std::vector<int> slots(n, -1);
  ParallelFor(jobs, n, [&](size_t i, int worker) {
    ids[i] = std::this_thread::get_id();
    slots[i] = worker;
    ++arrived;
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (arrived.load() < expected && !timed_out.load()) {
      if (std::chrono::steady_clock::now() > deadline) {
        timed_out = true;
        return;
      }
      std::this_thread::yield();
    }
  });
  if (timed_out.load()) return 0;
  EXPECT_EQ(std::set<int>(slots.begin(), slots.end()).size(), expected);
  return std::set<std::thread::id>(ids.begin(), ids.end()).size();
}

TEST(ParallelFor, CoversEveryIndexOnce) {
  const std::thread::id caller = std::this_thread::get_id();
  for (int round = 0; round < 3; ++round) {
    for (int jobs : {0, 1, 2, 3, 8}) {
      constexpr size_t kN = 1000;
      std::vector<std::atomic<int>> hits(kN);
      std::vector<std::thread::id> ids(kN);
      ParallelFor(jobs, kN, [&](size_t i, int) {
        ++hits[i];
        ids[i] = std::this_thread::get_id();
      });
      for (size_t i = 0; i < kN; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
      // At most min(jobs, n) threads; with more than one worker the
      // caller only waits and runs no body.
      std::set<std::thread::id> threads(ids.begin(), ids.end());
      EXPECT_LE(threads.size(), Workers(jobs, kN)) << "jobs " << jobs;
      if (Workers(jobs, kN) > 1) {
        EXPECT_EQ(threads.count(caller), 0u) << "jobs " << jobs;
      }
    }
  }
}

TEST(ParallelFor, StartsMinOfJobsAndNWorkers) {
  // Repeated at every small size: each call starts its threads, runs all
  // of them at once, and joins them before returning.
  for (int round = 0; round < 3; ++round) {
    for (int jobs : {1, 2, 3, 8}) {
      EXPECT_EQ(RendezvousThreads(jobs, jobs), static_cast<size_t>(jobs));
    }
    EXPECT_EQ(RendezvousThreads(8, 3), 3u);
  }
}

TEST(ParallelFor, DefaultJobsUseHardwareConcurrency) {
  const int hardware = HardwareConcurrency();
  EXPECT_GE(hardware, 1);
  EXPECT_EQ(RendezvousThreads(0, hardware), static_cast<size_t>(hardware));
  EXPECT_EQ(RendezvousThreads(-1, hardware), static_cast<size_t>(hardware));
}

TEST(ParallelFor, WorkerSlotsAreExclusive) {
  // Two indices running concurrently must never observe the same worker
  // slot: per-slot scratch reuse depends on it. Detect overlap with a
  // per-slot "occupied" flag.
  struct Case {
    int jobs;
    size_t n;
  };
  for (const Case& c : {Case{4, 200}, Case{8, 3}, Case{0, 64}, Case{2, 50}}) {
    const size_t workers = Workers(c.jobs, c.n);
    std::vector<std::atomic<int>> occupied(workers);
    std::atomic<bool> overlap{false};
    std::atomic<bool> out_of_range{false};
    ParallelFor(c.jobs, c.n, [&](size_t, int worker) {
      if (worker < 0 || static_cast<size_t>(worker) >= workers) {
        out_of_range = true;
        return;
      }
      if (occupied[worker].fetch_add(1) != 0) overlap = true;
      std::this_thread::sleep_for(std::chrono::microseconds(50));
      occupied[worker].fetch_sub(1);
    });
    EXPECT_FALSE(out_of_range.load()) << "jobs " << c.jobs << " n " << c.n;
    EXPECT_FALSE(overlap.load()) << "jobs " << c.jobs << " n " << c.n;
  }
}

TEST(ParallelFor, OneWorkerRunsOnCallingThread) {
  // With one job, or at most one index, no thread is started: every body
  // runs on the caller as worker 0.
  const std::thread::id caller = std::this_thread::get_id();
  struct Case {
    int jobs;
    size_t n;
  };
  for (const Case& c : {Case{1, 64}, Case{8, 1}, Case{0, 1}}) {
    std::vector<int> hits(c.n, 0);
    ParallelFor(c.jobs, c.n, [&](size_t i, int worker) {
      EXPECT_EQ(std::this_thread::get_id(), caller);
      EXPECT_EQ(worker, 0);
      ++hits[i];
    });
    for (int h : hits) EXPECT_EQ(h, 1);
  }
}

TEST(ParallelFor, EmptyRangeNeverCallsBody) {
  for (int jobs : {0, 1, 8}) {
    bool called = false;
    ParallelFor(jobs, 0, [&](size_t, int) { called = true; });
    EXPECT_FALSE(called) << "jobs " << jobs;
  }
}

TEST(ParallelFor, ExceptionSurfacesAfterEveryThreadStops) {
  // Index 0 throws at once while every other body is slow: a rethrow that
  // did not wait for the joins would land while bodies are still running.
  constexpr size_t kN = 200;
  std::atomic<int> active{0};
  std::atomic<int> finished{0};
  try {
    ParallelFor(3, kN, [&](size_t i, int) {
      if (i == 0) throw std::runtime_error("index boom");
      ++active;
      std::this_thread::sleep_for(std::chrono::microseconds(200));
      ++finished;
      --active;
    });
    FAIL() << "ParallelFor swallowed the body's exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "index boom");
    EXPECT_EQ(active.load(), 0);
    // The throwing body stopped only its own thread; the others ran every
    // remaining index.
    EXPECT_EQ(finished.load(), static_cast<int>(kN - 1));
  }
}

}  // namespace
}  // namespace dcpi
