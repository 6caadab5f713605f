// Tests for the lock-hierarchy (rank) checker in src/support/mutex.h:
// rank registration and release bookkeeping, rejection of reentrant and
// out-of-rank acquisition (death tests), and a multi-threaded smoke that
// runs under the TSan gate to confirm the checker introduces no races or
// ordering of its own.

#include "src/support/mutex.h"

#include <thread>
#include <vector>

#include "gtest/gtest.h"

namespace dcpi {
namespace {

using lockrank::HeldCountForTest;
using lockrank::MaxHeldRankForTest;

class LockHierarchyTest : public ::testing::Test {};

TEST_F(LockHierarchyTest, RegistersAcquisitionsInRankOrder) {
  Mutex outer(LockRank::kDaemonFlush, "test.outer");
  Mutex inner(LockRank::kDaemonProfiles, "test.inner");
  EXPECT_EQ(HeldCountForTest(), 0);
  EXPECT_EQ(MaxHeldRankForTest(), -1);
  {
    MutexLock lock_outer(&outer);
    EXPECT_EQ(HeldCountForTest(), 1);
    EXPECT_EQ(MaxHeldRankForTest(), static_cast<int>(LockRank::kDaemonFlush));
    {
      MutexLock lock_inner(&inner);
      EXPECT_EQ(HeldCountForTest(), 2);
      EXPECT_EQ(MaxHeldRankForTest(),
                static_cast<int>(LockRank::kDaemonProfiles));
    }
    EXPECT_EQ(HeldCountForTest(), 1);
  }
  EXPECT_EQ(HeldCountForTest(), 0);
  EXPECT_EQ(MaxHeldRankForTest(), -1);
}

TEST_F(LockHierarchyTest, OutOfOrderReleaseIsLegal) {
  // Release order does not affect the ordering invariant; the checker must
  // unregister the right lock even when releases are not LIFO.
  Mutex a(LockRank::kDaemonFlush, "test.a");
  Mutex b(LockRank::kDaemonProfiles, "test.b");
  a.Lock();
  b.Lock();
  a.Unlock();  // release the outer lock first
  EXPECT_EQ(HeldCountForTest(), 1);
  EXPECT_EQ(MaxHeldRankForTest(), static_cast<int>(LockRank::kDaemonProfiles));
  // With only b (rank kDaemonProfiles) held, a higher rank is acquirable.
  Mutex c(LockRank::kProfileDb, "test.c");
  c.Lock();
  c.Unlock();
  b.Unlock();
  EXPECT_EQ(HeldCountForTest(), 0);
}

TEST_F(LockHierarchyTest, SameRankDistinctLocksSequentiallyIsLegal) {
  // The daemon takes many per-slot locks one after another (never two at
  // once); same rank must be fine as long as acquisitions do not nest.
  Mutex slot1(LockRank::kDaemonProfileSlot, "test.slot1");
  Mutex slot2(LockRank::kDaemonProfileSlot, "test.slot2");
  for (int i = 0; i < 3; ++i) {
    { MutexLock lock(&slot1); }
    { MutexLock lock(&slot2); }
  }
  EXPECT_EQ(HeldCountForTest(), 0);
}

TEST_F(LockHierarchyTest, SharedAcquisitionsRegisterLikeExclusive) {
  SharedMutex maps(LockRank::kDaemonLoadMaps, "test.maps");
  Mutex profiles(LockRank::kDaemonProfiles, "test.profiles");
  {
    ReaderMutexLock read_lock(&maps);
    EXPECT_EQ(HeldCountForTest(), 1);
    // The real ingest nesting: slot creation under the shared maps lock.
    MutexLock lock(&profiles);
    EXPECT_EQ(HeldCountForTest(), 2);
  }
  {
    WriterMutexLock write_lock(&maps);
    EXPECT_EQ(HeldCountForTest(), 1);
  }
  EXPECT_EQ(HeldCountForTest(), 0);
}

TEST_F(LockHierarchyTest, RankInversionAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        Mutex high(LockRank::kProfileDb, "test.high");
        Mutex low(LockRank::kDaemonFlush, "test.low");
        high.Lock();
        low.Lock();  // rank 200 under rank 600: inversion
      },
      "lock order inversion.*test\\.low.*test\\.high");
}

TEST_F(LockHierarchyTest, SameRankNestingAborts) {
  // Two locks of equal rank held at once could deadlock against a thread
  // nesting them the other way; the checker treats it as an inversion.
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        Mutex slot1(LockRank::kDaemonProfileSlot, "test.slot1");
        Mutex slot2(LockRank::kDaemonProfileSlot, "test.slot2");
        slot1.Lock();
        slot2.Lock();
      },
      "lock order inversion.*test\\.slot2.*test\\.slot1");
}

TEST_F(LockHierarchyTest, ReentrantAcquisitionAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        Mutex mu(LockRank::kLeaf, "test.reentrant");
        mu.Lock();
        mu.Lock();  // non-recursive mutex: self-deadlock
      },
      "recursive acquisition.*test\\.reentrant");
}

TEST_F(LockHierarchyTest, SharedReentrantAcquisitionAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        SharedMutex mu(LockRank::kLeaf, "test.shared");
        mu.ReaderLock();
        mu.ReaderLock();  // reader reentry can deadlock against a writer
      },
      "recursive acquisition.*test\\.shared");
}

TEST_F(LockHierarchyTest, MultiThreadedSmokeIntroducesNoRaces) {
  // Many threads hammer the real nesting shapes concurrently. Run under
  // TSan (scripts/check.sh) this verifies the checker's thread-local
  // bookkeeping adds no shared state of its own; in every build it
  // verifies rank checks stay correct under contention.
  Mutex flush(LockRank::kDaemonFlush, "smoke.flush");
  SharedMutex maps(LockRank::kDaemonLoadMaps, "smoke.maps");
  Mutex profiles(LockRank::kDaemonProfiles, "smoke.profiles");
  Mutex slot(LockRank::kDaemonProfileSlot, "smoke.slot");
  int guarded_value = 0;

  constexpr int kThreads = 4;
  constexpr int kIters = 500;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kIters; ++i) {
        {
          // The flush path: flush -> profiles -> slot.
          MutexLock lock_flush(&flush);
          MutexLock lock_profiles(&profiles);
          MutexLock lock_slot(&slot);
          ++guarded_value;
        }
        {
          // The ingest path: maps (shared) -> profiles, then slot alone.
          ReaderMutexLock lock_maps(&maps);
          MutexLock lock_profiles(&profiles);
        }
        {
          MutexLock lock_slot(&slot);
          ++guarded_value;
        }
        {
          WriterMutexLock lock_maps(&maps);
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(guarded_value, 2 * kThreads * kIters);
  EXPECT_EQ(HeldCountForTest(), 0);
}

}  // namespace
}  // namespace dcpi
