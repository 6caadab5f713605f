// Section 5.4: trace-driven exploration of driver hash-table designs.
//
// Paper: replaying sample traces through a hash-table simulator shows that
// (1) increasing associativity from 4-way to 6-way and (2) replacing the
// mod-counter victim policy with swap-to-front (insert at the line head)
// would cut total collection overhead by 10-20%.
//
// Expected shape here: the same ordering — 6-way beats 4-way, swap-to-front
// beats mod-counter, and the combination gives the lowest miss rate and
// modelled handler cost.

#include "bench/bench_util.h"
#include "src/driver/driver.h"
#include "src/support/rng.h"
#include "src/support/text_table.h"

using namespace dcpi;
using namespace dcpi::bench;

int main() {
  PrintHeader("bench_sec54_hashtable_ablation: hash-table design space",
              "Section 5.4");

  // Build a gcc-shaped trace workload directly: a flat sweep over a few
  // hundred generated procedures under several PIDs, sampled densely, so
  // the (PID, PC) key universe is comparable to the 16K-entry table with a
  // few samples per key — the regime where the paper's gcc measurements
  // live (38-44% miss rate) and where replacement/associativity choices
  // matter. An x11 run adds the hit-heavy traffic of a normal workload.
  std::vector<SampleKey> trace;
  {
    WorkloadFactory factory(/*scale=*/1.0, /*seed=*/1);
    std::string source =
        "        .text\n        .proc main\n        li r20, 4\nround:\n";
    for (int p = 0; p < 200; ++p) {
      source += "        bsr r26, pass_" + std::to_string(p) + "\n";
    }
    source += "        subq r20, 1, r20\n        bne r20, round\n        halt\n"
              "        .endp\n";
    SplitMix64 rng(99);
    for (int p = 0; p < 200; ++p) {
      std::string label = "pass_" + std::to_string(p);
      source += "        .proc " + label + "\n        li r1, " +
                std::to_string(p + 2) + "\n        li r2, 40\n" + label + "_l:\n";
      for (int i = 0; i < 30; ++i) {
        switch (rng.NextBelow(3)) {
          case 0:
            source += "        addq r1, " + std::to_string(1 + rng.NextBelow(7)) +
                      ", r1\n";
            break;
          case 1:
            source += "        xor r1, " + std::to_string(1 + rng.NextBelow(200)) +
                      ", r1\n";
            break;
          default:
            source += "        srl r1, 1, r3\n        addq r1, r3, r1\n";
            break;
        }
      }
      source += "        subq r2, 1, r2\n        bne r2, " + label +
                "_l\n        ret r31, (r26)\n        .endp\n";
    }
    std::shared_ptr<ExecutableImage> image = factory.Build("flatcc", source);
    Workload flat;
    flat.name = "flatcc";
    for (int i = 0; i < 8; ++i) {
      flat.processes.push_back({"cc_" + std::to_string(i), {image}, "main"});
    }
    WorkloadFactory x11_factory(/*scale=*/1.0, /*seed=*/2);
    Workload x11 = x11_factory.X11PerfLike();
    for (Workload* workload : {&flat, &x11}) {
      SystemConfig config;
      config.mode = ProfilingMode::kCycles;
      config.period_scale = 1.0 / 512;
      // Trace recording only needs the sample *keys*; charging handler cost
      // at this density would make the machine do nothing but interrupts.
      config.free_profiling = true;
      config.driver.record_trace = true;
      const std::vector<SampleKey> t =
          RunProfiled(*workload, config).system->driver()->Trace();
      trace.insert(trace.end(), t.begin(), t.end());
    }
  }
  std::printf("recorded trace: %zu samples\n\n", trace.size());

  struct Variant {
    const char* name;
    HashTableConfig config;
  };
  auto make = [](uint32_t associativity, Replacement replacement, HashKind hash) {
    HashTableConfig config;
    // The paper's 6-way packs more entries into each per-processor cache
    // line, which "would also increase the total number of entries in the
    // hash table": bucket count stays 4096, capacity grows with ways.
    config.associativity = associativity;
    config.replacement = replacement;
    config.hash = hash;
    return config;
  };
  // The first row is the paper's measured baseline — exactly the driver's
  // selectable legacy configuration — and the "6-way, swap-to-front" row
  // is exactly HashTableConfig{}, the configuration the driver now ships
  // by default. Both run through the real SampleHashTable and the driver's
  // shared ModelledCostPerSample (no bench-local cost model), so this
  // table measures the shipped implementations, not copies of them.
  const Variant kVariants[] = {
      {"4-way, mod-counter (1997 shipped)", HashTableConfig::Legacy()},
      {"6-way, mod-counter",
       make(6, Replacement::kModCounter, HashKind::kMultiplicative)},
      {"4-way, swap-to-front",
       make(4, Replacement::kSwapToFront, HashKind::kMultiplicative)},
      {"6-way, swap-to-front (default)", HashTableConfig{}},
      {"4-way, mod-counter, xor-fold hash",
       make(4, Replacement::kModCounter, HashKind::kXorFold)},
      {"2-way, mod-counter",
       make(2, Replacement::kModCounter, HashKind::kMultiplicative)},
      {"8-way, swap-to-front",
       make(8, Replacement::kSwapToFront, HashKind::kMultiplicative)},
  };

  // The driver's own interrupt cost model (hit vs miss handler cycles).
  DriverConfig cost_model;
  double baseline_cost = 0;
  double default_cost = 0;

  TextTable table;
  table.SetHeader({"design", "entries", "miss rate", "evictions", "probe depth",
                   "modelled cost (cy/sample)", "vs 1997"});
  for (const Variant& variant : kVariants) {
    SampleHashTable sim(variant.config);
    for (const SampleKey& key : trace) sim.Record(key);
    const HashTableStats& stats = sim.stats();
    double cost = ModelledCostPerSample(cost_model, stats);
    if (baseline_cost == 0) baseline_cost = cost;
    if (variant.config.associativity == HashTableConfig{}.associativity &&
        variant.config.replacement == HashTableConfig{}.replacement &&
        variant.config.hash == HashTableConfig{}.hash) {
      default_cost = cost;
    }
    char delta[32];
    std::snprintf(delta, sizeof(delta), "%+.1f%%", 100.0 * (cost - baseline_cost) /
                                                       baseline_cost);
    table.AddRow({variant.name,
                  std::to_string(variant.config.buckets *
                                 variant.config.associativity),
                  TextTable::Percent(100.0 * stats.MissRate(), 1),
                  std::to_string(stats.evictions),
                  TextTable::Fixed(stats.AvgProbeDepth(), 2),
                  TextTable::Fixed(cost, 0), delta});
  }
  table.Print();
  std::printf("\npaper: 6-way + swap-to-front reduce overall system cost by 10-20%%\n");
  if (default_cost > baseline_cost) {
    std::fprintf(stderr,
                 "GATE FAILED: shipped default costs %.0f cy/sample vs 1997's %.0f\n",
                 default_cost, baseline_cost);
    return 1;
  }
  std::printf("gate passed: shipped default (%.0f cy/sample) <= 1997 baseline (%.0f)\n",
              default_cost, baseline_cost);
  return 0;
}
