// Memory hierarchy tests: cache behaviour (direct-mapped and set
// associative, LRU), TLBs, the six-entry write buffer, and the memory
// system facade (parameterized over configurations).

#include <gtest/gtest.h>

#include "src/memory/memory_system.h"

namespace dcpi {
namespace {

TEST(Cache, DirectMappedConflicts) {
  Cache cache({1024, 32, 1});  // 32 sets
  EXPECT_FALSE(cache.Access(0));
  EXPECT_TRUE(cache.Access(0));
  EXPECT_TRUE(cache.Access(16));     // same line
  EXPECT_FALSE(cache.Access(1024));  // same set, different tag: evicts
  EXPECT_FALSE(cache.Access(0));     // evicted
}

TEST(Cache, SetAssociativeLru) {
  Cache cache({2048, 32, 2});  // 32 sets, 2 ways
  EXPECT_FALSE(cache.Access(0));
  EXPECT_FALSE(cache.Access(1024));  // same set, second way
  EXPECT_TRUE(cache.Access(0));      // both resident
  EXPECT_TRUE(cache.Access(1024));
  EXPECT_FALSE(cache.Access(2048));  // evicts LRU (0)
  EXPECT_FALSE(cache.Access(0));
  EXPECT_TRUE(cache.Access(2048));   // 1024 was evicted, not 2048
}

TEST(Cache, ProbeDoesNotFill) {
  Cache cache({1024, 32, 1});
  EXPECT_FALSE(cache.Probe(64));
  EXPECT_FALSE(cache.Probe(64));  // still absent
  cache.Access(64);
  EXPECT_TRUE(cache.Probe(64));
}

TEST(Cache, StatsAndInvalidate) {
  Cache cache({1024, 32, 1});
  cache.Access(0);
  cache.Access(0);
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_NEAR(cache.stats().MissRate(), 0.5, 1e-12);
  cache.InvalidateLine(0);
  EXPECT_FALSE(cache.Probe(0));
}

TEST(CacheDeathTest, InvalidGeometryAbortsInEveryBuild) {
  // Lookups index by shift and mask, so the constructor refuses geometries
  // that would mis-index; the check is not an assert, so it holds with
  // NDEBUG too.
  EXPECT_DEATH(Cache({3072, 24, 1}), "invalid cache geometry");  // line 24
  EXPECT_DEATH(Cache({3072, 32, 1}), "invalid cache geometry");  // 96 sets
  EXPECT_DEATH(Cache({1000, 32, 1}), "invalid cache geometry");  // partial set
  EXPECT_DEATH(Cache({1024, 32, 0}), "invalid cache geometry");  // no ways
  EXPECT_DEATH(Cache({1024, 0, 1}), "invalid cache geometry");   // no line
}

struct CacheSweepParam {
  uint64_t size;
  uint64_t line;
  uint32_t assoc;
};

// Names each case in the test listing ("8192B_32B_1way"); without it gtest
// prints the struct's bytes, padding included, so names vary by build.
void PrintTo(const CacheSweepParam& p, std::ostream* os) {
  *os << p.size << "B_" << p.line << "B_" << p.assoc << "way";
}

class CacheSweep : public ::testing::TestWithParam<CacheSweepParam> {};

// Property: a working set that fits the cache has no misses after warmup;
// one that exceeds it (streaming) misses on every new line.
TEST_P(CacheSweep, FitVersusStream) {
  const CacheSweepParam& p = GetParam();
  Cache cache({p.size, p.line, p.assoc});
  // Warm the full cache.
  for (uint64_t addr = 0; addr < p.size; addr += p.line) cache.Access(addr);
  uint64_t misses_before = cache.stats().misses;
  for (int pass = 0; pass < 3; ++pass) {
    for (uint64_t addr = 0; addr < p.size; addr += p.line) cache.Access(addr);
  }
  EXPECT_EQ(cache.stats().misses, misses_before) << "resident set should hit";
  // Streaming 4x the capacity misses every line.
  Cache stream({p.size, p.line, p.assoc});
  for (uint64_t addr = 0; addr < 4 * p.size; addr += p.line) stream.Access(addr);
  EXPECT_EQ(stream.stats().hits, 0u);
}

INSTANTIATE_TEST_SUITE_P(Configs, CacheSweep,
                         ::testing::Values(CacheSweepParam{8192, 32, 1},
                                           CacheSweepParam{8192, 64, 2},
                                           CacheSweepParam{65536, 64, 4},
                                           CacheSweepParam{2097152, 64, 1},
                                           CacheSweepParam{6144, 32, 3}));

TEST(Tlb, HitsAfterFillAndLruEviction) {
  Tlb tlb(2);
  EXPECT_FALSE(tlb.Access(0));
  EXPECT_TRUE(tlb.Access(100));                  // same page
  EXPECT_FALSE(tlb.Access(kPageBytes));          // second entry
  EXPECT_TRUE(tlb.Access(0));
  EXPECT_FALSE(tlb.Access(2 * kPageBytes));      // evicts LRU = page 1
  EXPECT_FALSE(tlb.Access(kPageBytes));
  EXPECT_EQ(tlb.stats().misses, 4u);
}

TEST(Tlb, ClearFlushesEverything) {
  Tlb tlb(8);
  tlb.Access(0);
  tlb.Clear();
  EXPECT_FALSE(tlb.Access(0));
}

TEST(WriteBuffer, StallsWhenAllEntriesBusy) {
  WriteBuffer wb(2, 64);
  // Two stores to distinct lines occupy both entries for 100 cycles.
  auto r1 = wb.Push(0, 10, 100);
  auto r2 = wb.Push(64, 10, 100);
  EXPECT_EQ(r1.issue_cycle, 10u);
  EXPECT_EQ(r2.issue_cycle, 10u);
  // A third store must wait until an entry drains at cycle 110.
  auto r3 = wb.Push(128, 11, 100);
  EXPECT_EQ(r3.issue_cycle, 110u);
  EXPECT_EQ(r3.stall_cycles, 99u);
  EXPECT_EQ(wb.stats().overflow_stalls, 1u);
}

TEST(WriteBuffer, MergesSameLine) {
  WriteBuffer wb(1, 64);
  wb.Push(0, 0, 100);
  auto merged = wb.Push(32, 5, 100);  // same 64-byte line
  EXPECT_TRUE(merged.merged);
  EXPECT_EQ(merged.issue_cycle, 5u);
  EXPECT_EQ(wb.stats().merges, 1u);
}

TEST(WriteBuffer, EarliestIssueIsNonMutating) {
  WriteBuffer wb(1, 64);
  wb.Push(0, 0, 50);
  EXPECT_EQ(wb.EarliestIssue(128, 10), 50u);
  EXPECT_EQ(wb.EarliestIssue(128, 10), 50u);  // unchanged
  EXPECT_EQ(wb.EarliestIssue(32, 10), 10u);   // mergeable with busy entry
  EXPECT_EQ(wb.DrainAllTime(), 50u);
}

TEST(MemorySystem, LoadLatencyTiers) {
  MemorySystem mem;
  // Cold: miss all the way to memory.
  LoadResult cold = mem.AccessLoad(0);
  EXPECT_TRUE(cold.dcache_miss);
  EXPECT_TRUE(cold.board_miss);
  EXPECT_EQ(cold.latency, kLoadHitLatency + kBoardLatency + kMemoryLatency);
  // Warm: D-cache hit.
  LoadResult warm = mem.AccessLoad(0);
  EXPECT_FALSE(warm.dcache_miss);
  EXPECT_EQ(warm.latency, kLoadHitLatency);
  // Evict from D-cache but not board: board-hit tier.
  for (uint64_t addr = 1 << 14; addr < (1 << 14) + 2 * kDcacheGeometry.size_bytes;
       addr += kDcacheGeometry.line_bytes) {
    mem.AccessLoad(addr);
  }
  LoadResult board = mem.AccessLoad(0);
  EXPECT_TRUE(board.dcache_miss);
  EXPECT_FALSE(board.board_miss);
  EXPECT_EQ(board.latency, kLoadHitLatency + kBoardLatency);
}

TEST(MemorySystem, StoresAreWriteThroughNoAllocate) {
  MemorySystem mem;
  mem.AccessDtbForData(0);
  mem.CommitStore(0, 0);
  // The store must not have filled the D-cache.
  LoadResult load = mem.AccessLoad(0);
  EXPECT_TRUE(load.dcache_miss);
  EXPECT_FALSE(load.board_miss);  // but the board cache has it
}

TEST(PageMapper, StableWithinRunDifferentAcrossSeeds) {
  PageMapper a(1), b(1), c(2);
  EXPECT_EQ(a.Translate(0x10000), b.Translate(0x10000));
  EXPECT_EQ(a.Translate(0x10000) / kPageBytes,
            a.Translate(0x10008) / kPageBytes);  // same page, same frame
  // Different seeds give (almost surely) different colourings over many pages.
  int differing = 0;
  for (uint64_t page = 0; page < 64; ++page) {
    if (a.Translate(page * kPageBytes) != c.Translate(page * kPageBytes)) ++differing;
  }
  EXPECT_GT(differing, 32);
}

}  // namespace
}  // namespace dcpi
