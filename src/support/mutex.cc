#include "src/support/mutex.h"

#include <cstdio>
#include <cstdlib>

namespace dcpi {
namespace lockrank {
namespace {

// Per-thread set of held locks, in acquisition order. Depth is tiny (the
// deepest real chain is three: daemon.flush -> daemon.profiles ->
// daemon.slot), so a fixed array beats a heap-allocating vector and keeps
// the checker allocation-free on the lock hot path. All state is
// thread-local: the checker itself takes no locks and shares nothing, so
// it cannot introduce races or ordering of its own.
constexpr int kMaxHeld = 16;

struct Held {
  const void* lock;
  int rank;
  const char* name;
};

struct ThreadLockState {
  Held held[kMaxHeld];
  int count = 0;
};

ThreadLockState& State() {
  thread_local ThreadLockState state;
  return state;
}

[[noreturn]] void Die(const char* problem, const char* acquiring,
                      int acquiring_rank, const char* held, int held_rank) {
  std::fprintf(stderr,
               "lock rank violation: %s: acquiring \"%s\" (rank %d) while "
               "holding \"%s\" (rank %d)\n",
               problem, acquiring, acquiring_rank, held, held_rank);
  std::abort();
}

}  // namespace

void CheckAcquire(const void* lock, int rank, const char* name) {
  ThreadLockState& state = State();
  const Held* worst = nullptr;
  for (int i = 0; i < state.count; ++i) {
    const Held& h = state.held[i];
    if (h.lock == lock) {
      Die("recursive acquisition", name, rank, h.name, h.rank);
    }
    if (h.rank >= rank && (worst == nullptr || h.rank > worst->rank)) {
      worst = &h;
    }
  }
  if (worst != nullptr) {
    Die("lock order inversion", name, rank, worst->name, worst->rank);
  }
}

void RecordAcquire(const void* lock, int rank, const char* name) {
  ThreadLockState& state = State();
  if (state.count >= kMaxHeld) {
    std::fprintf(stderr,
                 "lock rank checker: thread holds more than %d locks "
                 "(acquiring \"%s\")\n",
                 kMaxHeld, name);
    std::abort();
  }
  state.held[state.count++] = {lock, rank, name};
}

void RecordRelease(const void* lock, const char* name) {
  ThreadLockState& state = State();
  // Releases are usually LIFO; search back-to-front. Out-of-order release
  // is legal (it does not affect the ordering invariant), so just erase.
  for (int i = state.count - 1; i >= 0; --i) {
    if (state.held[i].lock == lock) {
      for (int j = i; j + 1 < state.count; ++j) {
        state.held[j] = state.held[j + 1];
      }
      --state.count;
      return;
    }
  }
  std::fprintf(stderr,
               "lock rank checker: releasing \"%s\" which this thread does "
               "not hold\n",
               name);
  std::abort();
}

int HeldCountForTest() { return State().count; }

int MaxHeldRankForTest() {
  ThreadLockState& state = State();
  int max_rank = -1;
  for (int i = 0; i < state.count; ++i) {
    if (state.held[i].rank > max_rank) max_rank = state.held[i].rank;
  }
  return max_rank;
}

}  // namespace lockrank
}  // namespace dcpi
