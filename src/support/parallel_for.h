// Call-scoped parallel loop for the offline tools.
//
// The collection half of the system (driver/daemon) has its own threading
// model tuned to the simulated machine; ParallelFor serves the *offline*
// half — the analysis engine, image loads, the dcpiprof/dcpistats profile
// grids and fleet compaction fanning independent work across host cores.
// Its threads live for one call only, so a tool that never fans out starts
// none, and no idle pool outlives the work.

#ifndef SRC_SUPPORT_PARALLEL_FOR_H_
#define SRC_SUPPORT_PARALLEL_FOR_H_

#include <cstddef>
#include <functional>

namespace dcpi {

// Host parallelism, never less than 1.
int HardwareConcurrency();

// Runs body(index, worker) for every index in [0, n) exactly once, on
// min(jobs, n) workers; `jobs` < 1 means HardwareConcurrency(). A single
// worker is the calling thread itself. Several are threads started for
// this call and joined before it returns, while the caller only waits, so
// the bodies allocate from those threads' malloc arenas and the caller's
// heap ends the same however the indices fell between workers (a caller
// that took a share would keep a schedule-dependent heap layout, and a
// long-running one a peak RSS that moves from run to run). Indices are
// handed out one at a time from a shared cursor. `worker` is a dense
// slot in [0, min(jobs, n)) held by one thread for the whole call, so
// callers can index per-thread scratch state with it.
//
// A body that throws stops its own thread; the others finish the
// remaining indices, and the exception is rethrown once every thread has
// joined.
//
// The caller must hold no dcpi::Mutex: with one worker the bodies run on
// the caller's own thread, where taking that lock trips the lock-rank
// checker, and with more the caller waits for bodies that would block on
// it.
void ParallelFor(int jobs, size_t n,
                 const std::function<void(size_t index, int worker)>& body);

}  // namespace dcpi

#endif  // SRC_SUPPORT_PARALLEL_FOR_H_
