// Whole-epoch analysis scaling: the AnalysisEngine fanning checked
// per-procedure analysis over every (image, procedure) pair of an epoch,
// and the content-addressed result cache skipping all of it on a re-run.
//
// The paper's bargain (Section 6) is cheap collection paid for by heavy
// offline analysis; this bench measures the two levers that keep the
// offline half usable at fleet scale: parallel fan-out (--jobs) and
// incremental re-analysis (the .cache directory).
//
// Columns: wall-clock for jobs=1 (no cache), jobs=4 (no cache), a cold
// cache-populating run, and a warm re-run. Gates:
//   - warm re-run >= 10x over the jobs=1 baseline (always enforced)
//   - jobs=4 >= 3x over jobs=1 (enforced only when the host has >= 4
//     cores; on smaller hosts the workers time-share and the ratio is
//     meaningless, so it is reported but not gated)
// Results must be byte-identical across every configuration.
//
// Also emits machine-readable BENCH_analysis_scaling.json in the working
// directory. --smoke shrinks the workload to seconds-scale sizes (CI /
// sanitizer runs): correctness checks stay, perf gates are skipped.

#include <chrono>
#include <cstring>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/analysis/engine.h"
#include "src/check/selfcheck.h"
#include "src/isa/assembler.h"
#include "src/profiledb/database.h"
#include "src/support/parallel_for.h"
#include "src/support/text_table.h"

using namespace dcpi;
using namespace dcpi::bench;

namespace {

// Synthesizes a branchy program: `procs` procedures, each an inner loop
// over `diamonds` if/else diamonds, called round-robin from main. The
// diamond chains put every procedure in the size range where the checked
// analysis does its full work — in particular the O(E^2) cycle-equivalence
// differential oracle, which is the expensive verification dcpicheck pays
// for per procedure and the cache memoizes (at ~20 diamonds a procedure is
// ~200 instructions, comfortably inside the oracle's 250-edge window).
std::string HeavyProgram(int procs, int diamonds, int rounds, int inner) {
  std::string s = "        .text\n        .proc main\n";
  s += "        li    r20, " + std::to_string(rounds) + "\nround:\n";
  for (int p = 0; p < procs; ++p) {
    s += "        bsr   r26, p" + std::to_string(p) + "\n";
  }
  s += "        subq  r20, 1, r20\n        bne   r20, round\n        halt\n"
       "        .endp\n";
  for (int p = 0; p < procs; ++p) {
    const std::string pn = "p" + std::to_string(p);
    s += "        .proc " + pn + "\n";
    s += "        li    r9, " + std::to_string(inner) + "\n" + pn + "_top:\n";
    for (int d = 0; d < diamonds; ++d) {
      const std::string dn = pn + "_d" + std::to_string(d);
      s += "        addq  r1, 1, r1\n"
           "        and   r1, 1, r2\n"
           "        addq  r3, 1, r3\n"
           "        subq  r3, 1, r4\n"
           "        addq  r4, 2, r5\n"
           "        beq   r2, " + dn + "_b\n"
           "        addq  r5, 1, r6\n"
           "        br    r31, " + dn + "_j\n" +
           dn + "_b: subq  r5, 1, r6\n" +
           dn + "_j: addq  r6, 0, r7\n";
    }
    s += "        subq  r9, 1, r9\n        bne   r9, " + pn + "_top\n"
         "        ret   r31, (r26)\n        .endp\n";
  }
  return s;
}

struct EngineRun {
  double ms = 0;
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  std::vector<std::vector<uint8_t>> result_bytes;  // identity fingerprint
  size_t procedures = 0;
};

EngineRun RunEngine(const std::vector<AnalysisInput>& inputs,
                    const AnalysisConfig& config, int jobs,
                    const std::string& cache_dir) {
  EngineOptions options;
  options.jobs = jobs;
  options.cache_dir = cache_dir;
  options.analyze = AnalyzeProcedureChecked;
  AnalysisEngine engine(options);
  auto start = std::chrono::steady_clock::now();
  EpochAnalysis epoch = engine.AnalyzeAll(inputs, config);
  EngineRun run;
  run.ms = std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() -
                                                     start)
               .count();
  run.cache_hits = epoch.cache_hits;
  run.cache_misses = epoch.cache_misses;
  run.procedures = epoch.procedures.size();
  for (const ProcedureResult& r : epoch.procedures) {
    if (!r.status.ok()) {
      std::fprintf(stderr, "FATAL: %s/%s: %s\n", r.image_name.c_str(),
                   r.proc.name.c_str(), r.status.ToString().c_str());
      std::exit(1);
    }
    run.result_bytes.push_back(SerializeProcedureAnalysis(r.analysis));
  }
  return run;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else {
      std::fprintf(stderr, "usage: bench_analysis_scaling [--smoke]\n");
      return 2;
    }
  }

  PrintHeader("bench_analysis_scaling: whole-epoch parallel analysis + result cache",
              "Section 6 analysis suite at fleet scale (ROADMAP: fast as the "
              "hardware allows)");

  const BenchDir dir;
  const std::string& root = dir.path();

  // Several distinct images, each with a fan of procedures, so the engine
  // has a real whole-epoch (image, procedure) task list.
  const int images = smoke ? 2 : 4;
  const int procs = smoke ? 4 : 8;
  const int diamonds = smoke ? 6 : 20;
  Workload workload;
  workload.name = "analysis_heavy";
  workload.description = "branchy procedures sized for full checked analysis";
  for (int i = 0; i < images; ++i) {
    const std::string name = "heavy" + std::to_string(i);
    Result<std::shared_ptr<ExecutableImage>> image =
        Assemble(name, 0x0100'0000 + static_cast<uint64_t>(i) * 0x0100'0000,
                 HeavyProgram(procs, diamonds, /*rounds=*/smoke ? 2 : 4,
                              /*inner=*/smoke ? 8 : 16));
    if (!image.ok()) {
      std::fprintf(stderr, "FATAL: assemble %s: %s\n", name.c_str(),
                   image.status().ToString().c_str());
      return 1;
    }
    workload.processes.push_back({name, {image.value()}, "main"});
  }
  SystemConfig spec;
  spec.mode = ProfilingMode::kDefault;  // CYCLES + event profiles
  spec.period_scale = 1.0 / 16;
  spec.free_profiling = true;
  spec.db_root = root + "/db";
  RunOutput run = RunProfiled(workload, spec);
  const uint32_t epoch = run.system->database()->current_epoch();

  // Assemble the epoch's AnalysisInputs the way the tools do: every image
  // with a CYCLES profile, event profiles attached when present.
  ProfileDatabase db(spec.db_root);
  struct Slot {
    std::shared_ptr<ExecutableImage> image;
    std::optional<ImageProfile> profiles[kNumEventTypes];
  };
  std::vector<std::unique_ptr<Slot>> slots;
  for (const ProcessSpec& process : workload.processes) {
    for (const auto& image : process.images) {
      bool seen = false;
      for (const auto& slot : slots) seen = seen || slot->image == image;
      if (seen) continue;
      auto slot = std::make_unique<Slot>();
      slot->image = image;
      for (int e = 0; e < kNumEventTypes; ++e) {
        Result<ImageProfile> profile =
            db.ReadProfile(epoch, image->name(), static_cast<EventType>(e));
        if (profile.ok()) slot->profiles[e] = std::move(profile.value());
      }
      if (slot->profiles[0].has_value()) slots.push_back(std::move(slot));
    }
  }
  std::vector<AnalysisInput> inputs;
  for (const auto& slot : slots) {
    AnalysisInput input;
    input.image = slot->image;
    auto ptr = [&](EventType e) -> const ImageProfile* {
      const auto& p = slot->profiles[static_cast<int>(e)];
      return p.has_value() ? &*p : nullptr;
    };
    input.cycles = ptr(EventType::kCycles);
    input.imiss = ptr(EventType::kImiss);
    input.dmiss = ptr(EventType::kDmiss);
    input.branchmp = ptr(EventType::kBranchMp);
    input.dtbmiss = ptr(EventType::kDtbMiss);
    inputs.push_back(input);
  }
  if (inputs.empty()) {
    std::fprintf(stderr, "FATAL: no profiled images in the epoch\n");
    return 1;
  }

  AnalysisConfig config;
  config.selfcheck = true;  // the dcpicheck path: analysis + verification

  const std::string cache_dir = spec.db_root + "/epoch_" + std::to_string(epoch) +
                                "/.cache";
  const int host_threads = HardwareConcurrency();

  EngineRun jobs1 = RunEngine(inputs, config, 1, /*cache_dir=*/"");
  EngineRun jobs4 = RunEngine(inputs, config, 4, /*cache_dir=*/"");
  EngineRun cold = RunEngine(inputs, config, 1, cache_dir);
  EngineRun warm = RunEngine(inputs, config, 1, cache_dir);

  bool identical = jobs1.result_bytes == jobs4.result_bytes &&
                   jobs1.result_bytes == cold.result_bytes &&
                   jobs1.result_bytes == warm.result_bytes;
  bool warm_all_hits = warm.cache_misses == 0 && warm.cache_hits == warm.procedures;

  double parallel_speedup = jobs4.ms > 0 ? jobs1.ms / jobs4.ms : 0;
  double warm_speedup = warm.ms > 0 ? jobs1.ms / warm.ms : 0;

  TextTable table;
  table.SetHeader({"configuration", "ms", "hits", "misses", "speedup"});
  auto add = [&](const char* name, const EngineRun& r, double speedup) {
    table.AddRow({name, TextTable::Fixed(r.ms, 1), std::to_string(r.cache_hits),
                  std::to_string(r.cache_misses),
                  speedup > 0 ? TextTable::Fixed(speedup, 2) + "x" : "-"});
  };
  add("jobs=1, no cache", jobs1, 0);
  add("jobs=4, no cache", jobs4, parallel_speedup);
  add("jobs=1, cold cache", cold, 0);
  add("jobs=1, warm cache", warm, warm_speedup);
  table.Print();
  std::printf("\nimages: %zu  procedures: %zu  host threads: %d\n", inputs.size(),
              jobs1.procedures, host_threads);
  std::printf("results byte-identical across configurations: %s\n",
              identical ? "yes" : "NO");

  // Gates. Parallel speedup needs real cores; the warm-cache gate does not.
  const bool enforce_parallel = !smoke && host_threads >= 4;
  const bool enforce_warm = !smoke;
  bool pass = identical && warm_all_hits;
  if (!warm_all_hits) {
    std::printf("warm re-run was not served fully from cache (FAIL)\n");
  }
  if (enforce_parallel) {
    std::printf("parallel speedup at 4 threads: %.2fx %s\n", parallel_speedup,
                parallel_speedup >= 3.0 ? "(PASS: >= 3x)" : "(FAIL: < 3x)");
    pass = pass && parallel_speedup >= 3.0;
  } else {
    std::printf("parallel speedup at 4 threads: %.2fx (not gated: %s)\n",
                parallel_speedup,
                smoke ? "--smoke" : "host has < 4 cores, workers time-share");
  }
  if (enforce_warm) {
    std::printf("warm-cache speedup: %.2fx %s\n", warm_speedup,
                warm_speedup >= 10.0 ? "(PASS: >= 10x)" : "(FAIL: < 10x)");
    pass = pass && warm_speedup >= 10.0;
  } else {
    std::printf("warm-cache speedup: %.2fx (not gated: --smoke)\n", warm_speedup);
  }

  char json[1024];
  std::snprintf(json, sizeof(json),
                "{\n"
                "  \"bench\": \"analysis_scaling\",\n"
                "  \"smoke\": %s,\n"
                "  \"host_threads\": %d,\n"
                "  \"images\": %zu,\n"
                "  \"procedures\": %zu,\n"
                "  \"jobs1_ms\": %.3f,\n"
                "  \"jobs4_ms\": %.3f,\n"
                "  \"cold_cache_ms\": %.3f,\n"
                "  \"warm_cache_ms\": %.3f,\n"
                "  \"parallel_speedup\": %.3f,\n"
                "  \"parallel_gate_enforced\": %s,\n"
                "  \"warm_speedup\": %.3f,\n"
                "  \"warm_gate_enforced\": %s,\n"
                "  \"byte_identical\": %s,\n"
                "  \"warm_all_hits\": %s,\n"
                "  \"pass\": %s\n"
                "}\n",
                smoke ? "true" : "false", host_threads, inputs.size(),
                jobs1.procedures, jobs1.ms, jobs4.ms, cold.ms, warm.ms,
                parallel_speedup, enforce_parallel ? "true" : "false", warm_speedup,
                enforce_warm ? "true" : "false", identical ? "true" : "false",
                warm_all_hits ? "true" : "false", pass ? "true" : "false");
  std::ofstream("BENCH_analysis_scaling.json") << json;
  std::printf("\nwrote BENCH_analysis_scaling.json\n");
  return pass ? 0 : 1;
}
