// Clang -Wthread-safety capability annotations.
//
// These macros attach compile-time lock-discipline contracts to the
// concurrent half of the system (driver handoff, daemon ingest, profile
// database, kernel loader): which mutex guards which field, which lock a
// function requires, what a scoped locker acquires and releases. Under
// Clang the contracts are enforced by `-Wthread-safety` (promoted to an
// error by the build, see the top-level CMakeLists and check.sh
// --wthread); under other compilers they expand to nothing, so GCC builds
// are unaffected.
//
// The macro set mirrors the Clang thread-safety-analysis documentation
// (and abseil's thread_annotations.h), minus the deprecated lockable
// spellings. Use them through src/support/mutex.h's annotated Mutex /
// SharedMutex / MutexLock types — annotating a raw std::mutex does
// nothing, because the std lock functions carry no capability attributes.

#ifndef SRC_SUPPORT_THREAD_ANNOTATIONS_H_
#define SRC_SUPPORT_THREAD_ANNOTATIONS_H_

#if defined(__clang__)
#define DCPI_THREAD_ANNOTATION__(x) __attribute__((x))
#else
#define DCPI_THREAD_ANNOTATION__(x)  // no-op on non-Clang compilers
#endif

// A type that acts as a capability (a lock). `x` names the capability kind
// in diagnostics, conventionally "mutex".
#define CAPABILITY(x) DCPI_THREAD_ANNOTATION__(capability(x))

// An RAII type whose constructor acquires a capability and whose
// destructor releases it (MutexLock and friends).
#define SCOPED_CAPABILITY DCPI_THREAD_ANNOTATION__(scoped_lockable)

// Data member: reads require the capability held (shared suffices for a
// SharedMutex), writes require it held exclusively.
#define GUARDED_BY(x) DCPI_THREAD_ANNOTATION__(guarded_by(x))

// Pointer member: the pointed-to data (not the pointer itself) is guarded.
#define PT_GUARDED_BY(x) DCPI_THREAD_ANNOTATION__(pt_guarded_by(x))

// Function contract: the caller must hold the capability (exclusively /
// at least shared) on entry, and it stays held across the call.
#define REQUIRES(...) \
  DCPI_THREAD_ANNOTATION__(requires_capability(__VA_ARGS__))
#define REQUIRES_SHARED(...) \
  DCPI_THREAD_ANNOTATION__(requires_shared_capability(__VA_ARGS__))

// Function contract: acquires (and does not release) the capability.
#define ACQUIRE(...) DCPI_THREAD_ANNOTATION__(acquire_capability(__VA_ARGS__))
#define ACQUIRE_SHARED(...) \
  DCPI_THREAD_ANNOTATION__(acquire_shared_capability(__VA_ARGS__))

// Function contract: releases a capability the caller holds.
#define RELEASE(...) DCPI_THREAD_ANNOTATION__(release_capability(__VA_ARGS__))
#define RELEASE_SHARED(...) \
  DCPI_THREAD_ANNOTATION__(release_shared_capability(__VA_ARGS__))
#define RELEASE_GENERIC(...) \
  DCPI_THREAD_ANNOTATION__(release_generic_capability(__VA_ARGS__))

// Function contract: acquires the capability iff the return value equals
// the given boolean.
#define TRY_ACQUIRE(...) \
  DCPI_THREAD_ANNOTATION__(try_acquire_capability(__VA_ARGS__))
#define TRY_ACQUIRE_SHARED(...) \
  DCPI_THREAD_ANNOTATION__(try_acquire_shared_capability(__VA_ARGS__))

// Function contract: the caller must NOT hold the capability (guards
// against self-deadlock on a non-reentrant mutex).
#define EXCLUDES(...) DCPI_THREAD_ANNOTATION__(locks_excluded(__VA_ARGS__))

// Runtime assertion that the capability is held (teaches the analysis a
// fact it cannot prove, e.g. across a condition-variable wait).
#define ASSERT_CAPABILITY(x) DCPI_THREAD_ANNOTATION__(assert_capability(x))
#define ASSERT_SHARED_CAPABILITY(x) \
  DCPI_THREAD_ANNOTATION__(assert_shared_capability(x))

// The function returns a reference to the named capability.
#define RETURN_CAPABILITY(x) DCPI_THREAD_ANNOTATION__(lock_returned(x))

// Escape hatch: the function is exempt from analysis. Every use must
// carry a comment stating the invariant that makes it safe.
#define NO_THREAD_SAFETY_ANALYSIS \
  DCPI_THREAD_ANNOTATION__(no_thread_safety_analysis)

#endif  // SRC_SUPPORT_THREAD_ANNOTATIONS_H_
