// Annotated mutex wrappers plus the runtime lock-hierarchy checker.
//
// Every lock in the concurrent half of the system is one of these types
// instead of a raw std::mutex, for two orthogonal guarantees:
//
//  1. Compile-time race detection (Clang -Wthread-safety). Mutex /
//     SharedMutex are CAPABILITY types and MutexLock / ReaderMutexLock are
//     SCOPED_CAPABILITY lockers, so `GUARDED_BY(mu_)` on a field turns any
//     unguarded or wrong-lock access into a build error under Clang (see
//     thread_annotations.h; GCC builds compile the same code unchecked).
//
//  2. Deterministic deadlock detection (the lock-hierarchy checker). Every
//     Mutex carries a static LockRank; a thread may only acquire locks in
//     strictly increasing rank order. Acquiring out of order — the
//     lock-order inversion pattern behind ABBA deadlocks, which TSan only
//     reports if both orders actually race in one run — aborts immediately
//     with both lock names, in every test run, even single-threaded ones.
//     The check runs before blocking on the lock, so a would-be deadlock
//     is reported instead of hung. Every build compiles it in.
//
// The global lock ordering lives in the LockRank enum below; DESIGN.md
// "Concurrency correctness" documents which lock guards which state.

#ifndef SRC_SUPPORT_MUTEX_H_
#define SRC_SUPPORT_MUTEX_H_

#include <mutex>
#include <shared_mutex>

#include "src/support/thread_annotations.h"

namespace dcpi {

// The global lock hierarchy: a thread holding a lock of rank R may only
// acquire locks of rank strictly greater than R. Ranks are spaced so new
// locks can slot in between existing levels. The constraints encoded here
// are exactly the nestings the code performs today:
//
//   kernel.loader        — leaf on the kernel side (never nested outward)
//   daemon.flush         — taken first on every flush/roll path; database
//                          writes (kProfileDb) nest inside it
//   daemon.maps (shared) — ingest resolves PCs under it and creates
//                          profile slots (kDaemonProfiles) inside it
//   daemon.profiles      — slot map structure; per-slot merge locks nest
//   daemon.slot          — per-(image,event) merge lock; innermost daemon
//                          lock (never two at once, so one shared rank)
//   profiledb            — epoch cursor + write serialization; nests
//                          inside daemon.flush, never the reverse
//
// ParallelFor (parallel_for.h) takes no lock: its callers hold none, so
// the analysis work it runs may take any rank.
enum class LockRank : int {
  kKernelLoader = 100,
  kDaemonFlush = 200,
  kDaemonLoadMaps = 300,
  kDaemonProfiles = 400,
  kDaemonProfileSlot = 500,
  kProfileDb = 600,
  // For tools/tests that need an innermost lock with no children.
  kLeaf = 10'000,
};

namespace lockrank {

// Aborts (with both lock names) if the calling thread already holds
// `lock`, or holds any lock of rank >= `rank`.
void CheckAcquire(const void* lock, int rank, const char* name);
// Records `lock` as held by the calling thread. Call after acquisition.
void RecordAcquire(const void* lock, int rank, const char* name);
// Removes `lock` from the calling thread's held set. Call before release.
void RecordRelease(const void* lock, const char* name);
// Number of locks the calling thread currently holds (tests).
int HeldCountForTest();
// Highest rank among the calling thread's held locks, or -1 (tests).
int MaxHeldRankForTest();

}  // namespace lockrank

// Exclusive mutex with a capability annotation and a static rank.
class CAPABILITY("mutex") Mutex {
 public:
  Mutex(LockRank rank, const char* name)
      : rank_(static_cast<int>(rank)), name_(name) {}
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() ACQUIRE() {
    lockrank::CheckAcquire(this, rank_, name_);
    mu_.lock();
    lockrank::RecordAcquire(this, rank_, name_);
  }
  void Unlock() RELEASE() {
    lockrank::RecordRelease(this, name_);
    mu_.unlock();
  }

  int rank() const { return rank_; }
  const char* name() const { return name_; }

 private:
  std::mutex mu_;
  const int rank_;
  const char* const name_;
};

// Reader/writer mutex, same contract. Shared (reader) acquisitions obey
// the same rank order as exclusive ones: ordering deadlocks do not care
// which mode the locks were taken in.
class CAPABILITY("mutex") SharedMutex {
 public:
  SharedMutex(LockRank rank, const char* name)
      : rank_(static_cast<int>(rank)), name_(name) {}
  SharedMutex(const SharedMutex&) = delete;
  SharedMutex& operator=(const SharedMutex&) = delete;

  void Lock() ACQUIRE() {
    lockrank::CheckAcquire(this, rank_, name_);
    mu_.lock();
    lockrank::RecordAcquire(this, rank_, name_);
  }
  void Unlock() RELEASE() {
    lockrank::RecordRelease(this, name_);
    mu_.unlock();
  }
  void ReaderLock() ACQUIRE_SHARED() {
    lockrank::CheckAcquire(this, rank_, name_);
    mu_.lock_shared();
    lockrank::RecordAcquire(this, rank_, name_);
  }
  void ReaderUnlock() RELEASE_SHARED() {
    lockrank::RecordRelease(this, name_);
    mu_.unlock_shared();
  }

  int rank() const { return rank_; }
  const char* name() const { return name_; }

 private:
  std::shared_mutex mu_;
  const int rank_;
  const char* const name_;
};

// Scoped exclusive lock (the std::lock_guard replacement).
class SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex* mu) ACQUIRE(mu) : mu_(mu) { mu_->Lock(); }
  ~MutexLock() RELEASE() { mu_->Unlock(); }
  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex* const mu_;
};

// Scoped exclusive lock on a SharedMutex (writer side).
class SCOPED_CAPABILITY WriterMutexLock {
 public:
  explicit WriterMutexLock(SharedMutex* mu) ACQUIRE(mu) : mu_(mu) {
    mu_->Lock();
  }
  ~WriterMutexLock() RELEASE() { mu_->Unlock(); }
  WriterMutexLock(const WriterMutexLock&) = delete;
  WriterMutexLock& operator=(const WriterMutexLock&) = delete;

 private:
  SharedMutex* const mu_;
};

// Scoped shared lock on a SharedMutex (reader side).
class SCOPED_CAPABILITY ReaderMutexLock {
 public:
  explicit ReaderMutexLock(SharedMutex* mu) ACQUIRE_SHARED(mu) : mu_(mu) {
    mu_->ReaderLock();
  }
  ~ReaderMutexLock() RELEASE_SHARED() { mu_->ReaderUnlock(); }
  ReaderMutexLock(const ReaderMutexLock&) = delete;
  ReaderMutexLock& operator=(const ReaderMutexLock&) = delete;

 private:
  SharedMutex* const mu_;
};

}  // namespace dcpi

#endif  // SRC_SUPPORT_MUTEX_H_
