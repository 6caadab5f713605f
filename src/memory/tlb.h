// Translation look-aside buffers (ITB / DTB).
//
// Fully-associative with LRU replacement, matching the 21164's 48-entry ITB
// and 64-entry DTB. A miss costs the PAL-code fill penalty; the walk itself
// is not simulated.

#ifndef SRC_MEMORY_TLB_H_
#define SRC_MEMORY_TLB_H_

#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "src/isa/isa.h"

namespace dcpi {

struct TlbStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
};

class Tlb {
 public:
  explicit Tlb(uint32_t entries) : entries_(entries) {}

  // Returns true if the page containing vaddr is mapped (hit); on a miss the
  // entry is filled.
  bool Access(uint64_t vaddr) {
    uint64_t vpage = vaddr / kPageBytes;
    ++use_clock_;
    if (mru_ < slots_.size() && slots_[mru_].vpage == vpage) {
      slots_[mru_].last_use = use_clock_;
      ++stats_.hits;
      return true;
    }
    return ScanAndFill(vpage);
  }

  void Clear();  // e.g. on context switch (our ASNs are not modelled)

  const TlbStats& stats() const { return stats_; }

 private:
  struct Entry {
    uint64_t vpage;
    uint64_t last_use;
  };

  // Access() past the most-recent-entry check: the linear scan, then the
  // LRU fill on a miss.
  bool ScanAndFill(uint64_t vpage);

  uint32_t entries_;
  std::vector<Entry> slots_;
  // Slot of the most recent hit or fill, checked before the scan. A page
  // is in at most one slot, so this finds the slot the scan would.
  size_t mru_ = 0;
  uint64_t use_clock_ = 0;
  TlbStats stats_;
};

}  // namespace dcpi

#endif  // SRC_MEMORY_TLB_H_
