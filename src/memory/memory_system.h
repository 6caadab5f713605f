// Per-CPU memory hierarchy timing model: ITB/DTB, I-cache, D-cache, a
// direct-mapped board cache, and the six-entry write buffer.
//
// The hierarchy tracks timing and event flags only; data contents are held
// by process address spaces. Caches are physically indexed, so the per-run
// random page colouring (PageMapper) perturbs board-cache conflicts exactly
// as the paper observes across wave5 runs.

#ifndef SRC_MEMORY_MEMORY_SYSTEM_H_
#define SRC_MEMORY_MEMORY_SYSTEM_H_

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <memory>
#include <unordered_map>

#include "src/memory/cache.h"
#include "src/memory/tlb.h"
#include "src/memory/write_buffer.h"
#include "src/support/rng.h"

namespace dcpi {

struct MemoryConfig {
  CacheConfig icache{8 * 1024, 32, 1};
  CacheConfig dcache{8 * 1024, 32, 1};
  CacheConfig board{2 * 1024 * 1024, 64, 1};
  uint32_t itb_entries = 48;
  uint32_t dtb_entries = 64;
  uint32_t wb_entries = 6;

  // Latencies in CPU cycles.
  uint64_t load_hit_latency = 2;    // D-cache hit, load-to-use
  uint64_t board_latency = 8;      // added on an L1 miss that hits the board cache
  uint64_t memory_latency = 80;    // added on a board-cache miss
  uint64_t tlb_fill_penalty = 40;  // PALcode TLB fill
  uint64_t wb_drain_board = 6;     // write-buffer entry occupancy, board hit
  uint64_t wb_drain_memory = 40;   // write-buffer entry occupancy, board miss
};

// Assigns physical pages to virtual pages on first touch, with a randomized
// colouring per run. One mapper per process.
class PageMapper {
 public:
  explicit PageMapper(uint64_t seed) : rng_(seed) {}

  uint64_t Translate(uint64_t vaddr) {
    uint64_t vpage = vaddr / kPageBytes;
    Memo& memo = memo_[vpage % kMemoEntries];
    if (memo.vpage != vpage) {
      auto it = map_.find(vpage);
      if (it == map_.end()) {
        uint64_t ppage = rng_.Next() & 0x3ffff;  // 256K pages = 2 GB physical
        it = map_.emplace(vpage, ppage).first;
      }
      memo = {vpage, it->second};
    }
    return memo.ppage * kPageBytes + vaddr % kPageBytes;
  }

  // Forgets every translation and frees the map's storage, once the
  // owning process has exited and will never translate again.
  void Release() {
    std::unordered_map<uint64_t, uint64_t>().swap(map_);
    std::fill(std::begin(memo_), std::end(memo_), Memo());
  }

 private:
  // Direct-mapped cache of recent translations. A memo entry only ever
  // holds a pair already in map_, which never changes once assigned, so a
  // hit returns what the map would; misses take the map path, keeping the
  // first-touch order of colouring draws. Release clears map and memo
  // together.
  struct Memo {
    uint64_t vpage = ~0ull;  // no page number: vaddr / kPageBytes < 2^51
    uint64_t ppage = 0;
  };
  static constexpr size_t kMemoEntries = 16;

  SplitMix64 rng_;
  std::unordered_map<uint64_t, uint64_t> map_;
  Memo memo_[kMemoEntries];
};

struct LoadResult {
  uint64_t latency = 0;
  bool dcache_miss = false;
  bool board_miss = false;
};

struct FetchResult {
  uint64_t latency = 0;  // added fetch delay beyond the pipelined hit path
  bool icache_miss = false;
  bool board_miss = false;
  bool itb_miss = false;
};

class MemorySystem {
 public:
  explicit MemorySystem(const MemoryConfig& config);

  // DTB lookup for a data access (load or store); returns true on a miss.
  // The CPU charges the fill penalty as a pre-issue constraint, so the
  // cache-path calls below do not touch the DTB.
  bool AccessDtbForData(uint64_t vaddr) { return !dtb_.Access(vaddr); }

  // Cache path of a load (D-cache, then board cache).
  LoadResult AccessLoad(uint64_t paddr);

  // Commits an issued store: write-through D-cache probe, board-cache
  // access, write-buffer entry allocation. The issue-time constraint is
  // queried beforehand via write_buffer().EarliestIssue().
  void CommitStore(uint64_t paddr, uint64_t issue_cycle);

  FetchResult AccessFetch(uint64_t vaddr, uint64_t paddr);

  // Invalidate a few random D-cache lines, modelling interrupt-handler cache
  // pollution (the paper's handler costs are dominated by cache misses).
  void PerturbDcache(uint32_t lines);

  void ClearTlbs() {
    itb_.Clear();
    dtb_.Clear();
  }

  const MemoryConfig& config() const { return config_; }
  const Cache& icache() const { return icache_; }
  const Cache& dcache() const { return dcache_; }
  const Cache& board() const { return board_; }
  const Tlb& itb() const { return itb_; }
  const Tlb& dtb() const { return dtb_; }
  const WriteBuffer& write_buffer() const { return wb_; }

 private:
  MemoryConfig config_;
  Cache icache_;
  Cache dcache_;
  Cache board_;
  Tlb itb_;
  Tlb dtb_;
  WriteBuffer wb_;
  SplitMix64 perturb_rng_{0xdc91};
};

}  // namespace dcpi

#endif  // SRC_MEMORY_MEMORY_SYSTEM_H_
