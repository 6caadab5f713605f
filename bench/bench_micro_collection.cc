// Microbenchmarks (google-benchmark) for the collection hot paths: the
// interrupt handler's hash-table record, the Carta period randomizer, the
// daemon's PC-to-image resolution, and profile serialization.
//
// These are host-time measurements of the real data structures; the paper's
// cycle costs (Table 4) are modelled separately, but the *ratios* (hit vs
// miss, aggregation benefit) should echo here.

#include <benchmark/benchmark.h>

#include "src/daemon/daemon.h"
#include "src/driver/hash_table.h"
#include "src/isa/assembler.h"
#include "src/profiledb/database.h"
#include "src/support/rng.h"

namespace dcpi {
namespace {

void BM_CartaRngNext(benchmark::State& state) {
  CartaRng rng(12345);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.UniformInRange(60 * 1024, 64 * 1024));
  }
}
BENCHMARK(BM_CartaRngNext);

void BM_HashTableRecordHit(benchmark::State& state) {
  SampleHashTable table(HashTableConfig{});
  SampleKey key{42, 0x120001000, EventType::kCycles};
  table.Record(key);
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.Record(key));
  }
}
BENCHMARK(BM_HashTableRecordHit);

void BM_HashTableRecordMissStream(benchmark::State& state) {
  // Streaming distinct keys: every access misses and (once warm) evicts,
  // the gcc-like worst case.
  SampleHashTable table(HashTableConfig{});
  uint64_t pc = 0;
  for (auto _ : state) {
    SampleKey key{static_cast<uint32_t>(pc >> 18), 0x120000000 + (pc << 2),
                  EventType::kCycles};
    benchmark::DoNotOptimize(table.Record(key));
    ++pc;
  }
}
BENCHMARK(BM_HashTableRecordMissStream);

void BM_HashTableRecordLocalitySet(benchmark::State& state) {
  // A working set matching real workload locality (the paper's 20x
  // aggregation): a few hundred hot PCs.
  SampleHashTable table(HashTableConfig{});
  SplitMix64 rng(7);
  std::vector<SampleKey> keys;
  for (int i = 0; i < 400; ++i) {
    keys.push_back({7, 0x120000000 + rng.NextBelow(4096) * 4, EventType::kCycles});
  }
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.Record(keys[i++ % keys.size()]));
  }
  state.counters["miss_rate"] = table.stats().MissRate();
}
BENCHMARK(BM_HashTableRecordLocalitySet);

// Replacement-policy head-to-head on a hot-skewed stream under pressure:
// the same key mix through the shipped default (6-way swap-to-front) and
// the 1997 baseline (4-way mod-counter). Swap-to-front's win shows up in
// the probe_depth counter (hot keys migrate to the line head) and the
// miss_rate counter (two extra ways absorb the gcc-style key churn).
void BM_HashTableRecordPolicy(benchmark::State& state) {
  HashTableConfig config =
      state.range(0) == 0 ? HashTableConfig{} : HashTableConfig::Legacy();
  config.buckets = 256;  // small table: real eviction pressure
  SampleHashTable table(config);
  SplitMix64 rng(21);
  std::vector<SampleKey> keys;
  for (int i = 0; i < 8192; ++i) {
    // 70% of traffic over 64 hot keys, the rest over a churning tail.
    uint64_t pc = rng.NextBelow(10) < 7 ? rng.NextBelow(64) * 4
                                        : 0x1000 + rng.NextBelow(16384) * 4;
    keys.push_back({1 + static_cast<uint32_t>(rng.NextBelow(8)),
                    0x120000000 + pc, EventType::kCycles});
  }
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.Record(keys[i++ % keys.size()]));
  }
  state.SetLabel(state.range(0) == 0 ? "6way_swap_default" : "4way_mod_legacy");
  state.counters["miss_rate"] = table.stats().MissRate();
  state.counters["probe_depth"] = table.stats().AvgProbeDepth();
}
BENCHMARK(BM_HashTableRecordPolicy)->Arg(0)->Arg(1);

// Daemon ingest: one drained overflow buffer of 4096 records through the
// batched staging path, which pays the profile-map lookup and merge-lock
// round trip once per (image, event) group instead of once per record.
void BM_DaemonIngestBuffer(benchmark::State& state) {
  Daemon daemon(nullptr, nullptr);
  std::string source;
  for (int i = 0; i < 1024; ++i) source += "nop\n";
  source += "halt\n";
  std::vector<LoaderEvent> events;
  events.push_back(
      {LoaderEvent::Kind::kLoadImage, 7, Assemble("libhot", 0x0100'0000, source).value()});
  events.push_back(
      {LoaderEvent::Kind::kLoadImage, 7, Assemble("libcold", 0x0200'0000, source).value()});
  daemon.ProcessLoaderEvents(std::move(events));
  SplitMix64 rng(33);
  std::vector<SampleRecord> records;
  for (int i = 0; i < 4096; ++i) {
    uint64_t base = rng.NextBelow(4) == 0 ? 0x0200'0000 : 0x0100'0000;
    records.push_back({{7, base + rng.NextBelow(1024) * 4,
                        rng.NextBelow(8) == 0 ? EventType::kImiss : EventType::kCycles},
                       1 + rng.NextBelow(20)});
  }
  for (auto _ : state) {
    daemon.ProcessBuffer(0, records);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(records.size()));
}
BENCHMARK(BM_DaemonIngestBuffer);

void BM_ProfileSerializeVarint(benchmark::State& state) {
  ImageProfile profile("bench", EventType::kCycles, 62000);
  SplitMix64 rng(11);
  for (int i = 0; i < 2000; ++i) {
    profile.AddSamples(rng.NextBelow(65536) * 4, 1 + rng.NextBelow(1000));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(SerializeProfile(profile));
  }
  state.counters["bytes"] = static_cast<double>(SerializeProfile(profile).size());
  state.counters["fixed_bytes"] =
      static_cast<double>(SerializeProfileFixedWidth(profile).size());
}
BENCHMARK(BM_ProfileSerializeVarint);

}  // namespace
}  // namespace dcpi

BENCHMARK_MAIN();
