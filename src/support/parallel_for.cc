#include "src/support/parallel_for.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <thread>
#include <vector>

namespace dcpi {

int HardwareConcurrency() {
  unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<int>(n);
}

void ParallelFor(int jobs, size_t n,
                 const std::function<void(size_t index, int worker)>& body) {
  if (jobs < 1) jobs = HardwareConcurrency();
  const int workers = static_cast<int>(std::min(n, static_cast<size_t>(jobs)));
  if (workers == 0) return;

  // Each worker owns its error slot, so recording a failure needs no lock;
  // thread start and join order every access.
  std::atomic<size_t> cursor{0};
  std::vector<std::exception_ptr> errors(workers);
  auto run = [&](int worker) {
    try {
      for (size_t i = cursor++; i < n; i = cursor++) body(i, worker);
    } catch (...) {
      errors[worker] = std::current_exception();
    }
  };

  std::vector<std::thread> threads;
  if (workers > 1) {
    threads.reserve(workers);
    for (int worker = 0; worker < workers; ++worker) {
      try {
        threads.emplace_back(run, worker);
      } catch (...) {
        break;  // no thread to be had: the ones already running share the cursor
      }
    }
  }
  // One worker, or not a single thread to be had: the caller runs the loop.
  if (threads.empty()) run(0);
  for (std::thread& thread : threads) thread.join();
  for (const std::exception_ptr& error : errors) {
    if (error) std::rethrow_exception(error);
  }
}

}  // namespace dcpi
