// ProfileMe-style wide sample records (Section 7's "future directions",
// realized here along the lines of ARM SPE): a configurable fraction of
// delivered samples carry, in addition to the (pid, pc, event) a narrow
// sample has, the effective data virtual address of the sampled load, the
// load-to-use latency the pipeline model charged, the memory-hierarchy
// level that satisfied it, and whether the access took a DTB miss.
//
// Wide records do not fit the driver's packed 16-byte hash line, so they
// bypass the aggregation hash entirely and travel to the daemon through
// the per-CPU overflow buffers (see src/driver/driver.h).

#ifndef SRC_PERFCTR_WIDE_SAMPLE_H_
#define SRC_PERFCTR_WIDE_SAMPLE_H_

#include <cstdint>

#include "src/cpu/event.h"

namespace dcpi {

// Which level of the memory hierarchy satisfied a sampled load. kL2 is
// reserved (the modelled 21064-style machine has no on-chip L2; the slot
// keeps the enum — and the v4 on-disk encoding — stable if one is added).
enum class MemLevel : uint8_t {
  kL1 = 0,
  kL2 = 1,
  kBoard = 2,
  kDram = 3,
};

inline constexpr int kNumMemLevels = 4;

// One wide sample. `has_data` is false when the sampled instruction was
// not a load (the record still credits the PC axis, so choosing a sample
// to be wide never biases the PC profile); the data fields are only
// meaningful when it is true.
struct WideSampleRecord {
  uint32_t pid = 0;
  uint64_t pc = 0;
  EventType event = EventType::kCycles;
  bool has_data = false;
  uint64_t data_va = 0;
  uint32_t latency = 0;  // load-to-use cycles charged by the pipeline model
  MemLevel level = MemLevel::kL1;
  bool tlb_miss = false;
};

}  // namespace dcpi

#endif  // SRC_PERFCTR_WIDE_SAMPLE_H_
