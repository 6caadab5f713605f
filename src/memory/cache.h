// Set-associative cache timing model.
//
// The simulator models the 21164-like hierarchy the paper profiles on:
// small direct-mapped on-chip I- and D-caches backed by a large
// direct-mapped board cache, with physically-indexed lookups so that the
// per-run virtual-to-physical page colouring changes conflict behaviour
// (the mechanism behind Figure 3's cross-run variance).
//
// The cache tracks only tags (timing, not data); data contents live in the
// process address space.

#ifndef SRC_MEMORY_CACHE_H_
#define SRC_MEMORY_CACHE_H_

#include <cstdint>
#include <vector>

namespace dcpi {

struct CacheConfig {
  uint64_t size_bytes = 8 * 1024;
  uint64_t line_bytes = 32;
  uint32_t associativity = 1;
};

struct CacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;

  double MissRate() const {
    uint64_t total = hits + misses;
    return total == 0 ? 0.0 : static_cast<double>(misses) / static_cast<double>(total);
  }
};

class Cache {
 public:
  // Aborts with a message, in every build, unless the line size and the
  // set count are powers of two and the ways fill size_bytes exactly:
  // lookups index by shift and mask.
  explicit Cache(const CacheConfig& config);

  // Looks up `paddr`; on a miss the line is filled (LRU victim within the
  // set). Returns true on hit.
  bool Access(uint64_t paddr) {
    Way* base = &ways_[SetIndex(paddr) * config_.associativity];
    uint64_t tag = Tag(paddr);
    ++use_clock_;
    for (uint32_t w = 0; w < config_.associativity; ++w) {
      if (base[w].valid && base[w].tag == tag) {
        base[w].last_use = use_clock_;
        ++stats_.hits;
        return true;
      }
    }
    Fill(base, tag);
    return false;
  }

  // Lookup without fill (used by write-through stores).
  bool Probe(uint64_t paddr) const;

  // Invalidate the line containing `paddr` if present.
  void InvalidateLine(uint64_t paddr);

  void Clear();

  const CacheStats& stats() const { return stats_; }
  const CacheConfig& config() const { return config_; }
  uint64_t LineOf(uint64_t addr) const { return addr >> line_shift_; }

 private:
  struct Way {
    uint64_t tag = 0;
    bool valid = false;
    uint64_t last_use = 0;
  };

  // Access() after a miss: counts it and fills the LRU way of the set
  // starting at `base` (invalid ways first).
  void Fill(Way* base, uint64_t tag);

  uint64_t SetIndex(uint64_t paddr) const { return (paddr >> line_shift_) & set_mask_; }
  uint64_t Tag(uint64_t paddr) const { return paddr >> tag_shift_; }

  CacheConfig config_;
  uint64_t num_sets_;
  unsigned line_shift_;  // log2(line_bytes)
  uint64_t set_mask_;    // num_sets_ - 1
  unsigned tag_shift_;   // log2(line_bytes * num_sets_)
  std::vector<Way> ways_;  // num_sets_ * associativity, set-major
  uint64_t use_clock_ = 0;
  CacheStats stats_;
};

}  // namespace dcpi

#endif  // SRC_MEMORY_CACHE_H_
