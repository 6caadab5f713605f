// Continuous optimization (Section 7): close the loop the paper describes —
// profile a running system, feed the profile into a post-link optimizer
// (profile-guided procedure reordering, the Spike/OM starting move), and
// run the optimized binary.
//
// The workload interleaves a few hot procedures among many cold ones so
// the hot set conflicts in the direct-mapped I-cache; packing hot
// procedures together removes the conflicts.
//
// Gated: exits 1 (GATE FAILED on stderr) unless the optimized layout cuts
// I-cache misses by at least 90% and runs at least 1.15x faster.
//
// Build & run:  ./build/examples/continuous_optimization

#include <cstdio>

#include "src/optimize/layout.h"
#include "src/tools/toolkit.h"
#include "src/workloads/workloads.h"

using namespace dcpi;

namespace {

// 48 procedures, each padded to exactly 1 KB (256 instructions). Every
// 8th procedure is hot, so in the original layout all six hot procedures
// share the same direct-mapped 8 KB I-cache region and evict each other on
// every call. Packed together by the optimizer they occupy 6 KB and fit.
std::string BuildProgram() {
  std::string source = "        .text\n        .proc main\n        li r20, 400\nround:\n";
  for (int p = 0; p < 48; p += 8) {
    source += "        bsr r26, proc_" + std::to_string(p) + "\n";
  }
  source +=
      "        subq r20, 1, r20\n        bne r20, round\n"
      "        li r21, 2\ncold_round:\n";
  for (int p = 0; p < 48; ++p) {
    if (p % 8 != 0) source += "        bsr r26, proc_" + std::to_string(p) + "\n";
  }
  source += "        subq r21, 1, r21\n        bne r21, cold_round\n        halt\n"
            "        .endp\n        .align 1024\n";
  for (int p = 0; p < 48; ++p) {
    source += "        .proc proc_" + std::to_string(p) + "\n";
    source += "        li r1, " + std::to_string(p + 1) + "\n";  // 2 instructions
    for (int i = 0; i < 253; ++i) {
      source += "        addq r1, " + std::to_string((i % 5) + 1) + ", r1\n";
    }
    source += "        ret r31, (r26)\n        .endp\n";  // total: 256 instructions
  }
  return source;
}

struct Outcome {
  uint64_t cycles;
  uint64_t imiss;
  std::unique_ptr<System> system;
};

Outcome Run(std::shared_ptr<ExecutableImage> image) {
  Outcome outcome;
  SystemConfig config;
  config.mode = ProfilingMode::kDefault;
  config.period_scale = 1.0 / 16;
  config.free_profiling = true;
  outcome.system = std::make_unique<System>(config);
  (void)outcome.system->AddProcess("app", {image}, "main");
  SystemResult result = outcome.system->Run();
  outcome.cycles = result.elapsed_cycles;
  outcome.imiss = outcome.system->kernel().cpu(0).memory().icache().stats().misses;
  return outcome;
}

}  // namespace

int main() {
  WorkloadFactory factory(1.0);
  std::shared_ptr<ExecutableImage> image = factory.Build("app", BuildProgram());

  std::printf("== Pass 1: profile the original layout ==\n");
  Outcome before = Run(image);
  std::printf("cycles: %llu   I-cache misses: %llu\n\n",
              static_cast<unsigned long long>(before.cycles),
              static_cast<unsigned long long>(before.imiss));

  const ImageProfile* cycles_profile =
      before.system->daemon()->FindProfile("app", EventType::kCycles);
  if (cycles_profile == nullptr) {
    std::fprintf(stderr, "no profile collected\n");
    return 1;
  }

  std::printf("== Feed the profile into the layout optimizer ==\n");
  Result<std::shared_ptr<ExecutableImage>> optimized =
      ReorderProceduresByHotness(*image, *cycles_profile);
  if (!optimized.ok()) {
    std::fprintf(stderr, "%s\n", optimized.status().ToString().c_str());
    return 1;
  }
  std::printf("first procedures after reordering:");
  int shown = 0;
  for (const ProcedureSymbol& proc : optimized.value()->procedures()) {
    std::printf(" %s", proc.name.c_str());
    if (++shown == 6) break;
  }
  std::printf(" ...\n\n");

  std::printf("== Pass 2: run the optimized layout ==\n");
  Outcome after = Run(optimized.value());
  std::printf("cycles: %llu   I-cache misses: %llu\n\n",
              static_cast<unsigned long long>(after.cycles),
              static_cast<unsigned long long>(after.imiss));

  const double speedup =
      static_cast<double>(before.cycles) / static_cast<double>(after.cycles);
  const double miss_reduction_pct =
      100.0 * (1.0 - static_cast<double>(after.imiss) / static_cast<double>(before.imiss));
  std::printf("speedup: %.2fx   I-cache miss reduction: %.1f%%\n", speedup,
              miss_reduction_pct);

  constexpr double kMinMissReductionPct = 90.0;
  constexpr double kMinSpeedup = 1.15;
  if (miss_reduction_pct < kMinMissReductionPct || speedup < kMinSpeedup) {
    std::fprintf(stderr,
                 "GATE FAILED: Sec 7 continuous optimization: I-cache miss reduction "
                 "%.1f%% (need >= %.0f%%), speedup %.2fx (need >= %.2fx)\n",
                 miss_reduction_pct, kMinMissReductionPct, speedup, kMinSpeedup);
    return 1;
  }
  std::printf("gate passed: I-cache misses cut by at least %.0f%%, speedup at least %.2fx\n",
              kMinMissReductionPct, kMinSpeedup);
  return 0;
}
