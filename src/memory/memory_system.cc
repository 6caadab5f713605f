#include "src/memory/memory_system.h"

namespace dcpi {

MemorySystem::MemorySystem()
    : icache_(kIcacheGeometry),
      dcache_(kDcacheGeometry),
      board_(kBoardGeometry),
      itb_(kItbEntries),
      dtb_(kDtbEntries),
      wb_(kWriteBufferEntries, kBoardGeometry.line_bytes) {}

LoadResult MemorySystem::AccessLoad(uint64_t paddr) {
  LoadResult result;
  result.latency = kLoadHitLatency;
  if (!dcache_.Access(paddr)) {
    result.dcache_miss = true;
    result.latency += kBoardLatency;
    if (!board_.Access(paddr)) {
      result.board_miss = true;
      result.latency += kMemoryLatency;
    }
  }
  return result;
}

FetchResult MemorySystem::AccessFetch(uint64_t vaddr, uint64_t paddr) {
  FetchResult result;
  if (!itb_.Access(vaddr)) {
    result.itb_miss = true;
    result.latency += kTlbFillPenalty;
  }
  if (!icache_.Access(paddr)) {
    result.icache_miss = true;
    result.latency += kBoardLatency;
    if (!board_.Access(paddr)) {
      result.board_miss = true;
      result.latency += kMemoryLatency;
    }
  }
  return result;
}

void MemorySystem::CommitStore(uint64_t paddr, uint64_t issue_cycle) {
  // Write-through, no-allocate D-cache: a hit keeps the line, a miss does
  // not fill it. The drain time depends on whether the board cache has the
  // line (the write allocates there).
  dcache_.Probe(paddr);
  uint64_t drain = board_.Access(paddr) ? kWbDrainBoard : kWbDrainMemory;
  wb_.Push(paddr, issue_cycle, drain);
}

}  // namespace dcpi
