// Seeded lock-rank inversion for the negative runtime test.
//
// Acquires a high-rank lock (profiledb level) and then a low-rank one
// (daemon flush level) — the ABBA half of a potential deadlock. The
// lock-hierarchy checker must abort the second acquisition with "lock
// rank violation" naming both locks; scripts/wthread_negative_test.sh
// asserts exactly that. Reaching the end of main means the checker missed
// the inversion (exit 0 = the negative test FAILS).

#include <cstdio>

#include "src/support/mutex.h"

int main() {
  dcpi::Mutex high(dcpi::LockRank::kProfileDb, "seeded.high");
  dcpi::Mutex low(dcpi::LockRank::kDaemonFlush, "seeded.low");
  dcpi::MutexLock lock_high(&high);
  dcpi::MutexLock lock_low(&low);  // inversion: must abort here
  std::fprintf(stderr, "seeded rank inversion was not caught\n");
  return 0;
}
