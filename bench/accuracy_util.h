// Shared machinery for the estimate-accuracy experiments (Figures 8 and 9,
// Section 6.2): runs the analyzer over every procedure of a workload's
// images and compares frequency estimates against the simulator's exact
// execution counts (our dcpix).

#ifndef BENCH_ACCURACY_UTIL_H_
#define BENCH_ACCURACY_UTIL_H_

#include <map>

#include "bench/bench_util.h"
#include "src/support/stats.h"

namespace dcpi {
namespace bench {

struct AccuracyCollector {
  // Histograms per confidence level (index by Confidence), weighted by
  // CYCLES samples for instructions / edge executions for edges.
  ErrorHistogram instr_by_conf[4];
  ErrorHistogram instr_overall;
  ErrorHistogram edge_by_conf[4];
  ErrorHistogram edge_overall;
  uint64_t procedures_analyzed = 0;
  uint64_t procedures_skipped = 0;
};

// A densely sampled run that records the ground truth CollectAccuracy
// scores against. Profiling is free: densified interrupts would otherwise
// stretch the very stalls being estimated.
inline SystemConfig AccuracySpec(ProfilingMode mode, double period_scale) {
  SystemConfig spec;
  spec.kernel.record_ground_truth = true;
  spec.mode = mode;
  spec.period_scale = period_scale;
  spec.free_profiling = true;
  return spec;
}

// Analyzes every procedure with at least `min_samples` CYCLES samples in
// every image of the run and accumulates estimate-vs-truth errors. The run
// must have recorded ground truth (AccuracySpec).
inline void CollectAccuracy(System& system, uint64_t min_samples,
                            AccuracyCollector* collector) {
  const GroundTruth& gt = system.kernel().ground_truth();
  for (const ImageTruth& truth : gt.images()) {
    if (truth.instructions.size() != truth.image->num_instructions()) {
      std::fprintf(stderr, "FATAL: no ground truth recorded for %s\n",
                   truth.image->name().c_str());
      std::exit(1);
    }
    const ImageProfile* cycles =
        system.daemon()->FindProfile(truth.image->name(), EventType::kCycles);
    if (cycles == nullptr) continue;
    for (const ProcedureSymbol& proc : truth.image->procedures()) {
      uint64_t proc_samples = 0;
      for (uint64_t off = proc.start - truth.image->text_base();
           off < proc.end - truth.image->text_base(); off += kInstrBytes) {
        proc_samples += cycles->SamplesAt(off);
      }
      if (proc_samples < min_samples) {
        ++collector->procedures_skipped;
        continue;
      }
      AnalysisConfig config;
      Result<ProcedureAnalysis> analysis = AnalyzeProcedure(
          *truth.image, proc, *cycles,
          system.daemon()->FindProfile(truth.image->name(), EventType::kImiss),
          nullptr, nullptr, nullptr, config);
      if (!analysis.ok()) {
        ++collector->procedures_skipped;
        continue;
      }
      ++collector->procedures_analyzed;

      // ---- Instruction frequency errors (weighted by CYCLES samples) ----
      for (const InstructionAnalysis& ia : analysis.value().instructions) {
        uint64_t index = (ia.pc - truth.image->text_base()) / kInstrBytes;
        double true_count = static_cast<double>(truth.instructions[index].exec_count);
        if (true_count <= 0 || ia.samples == 0) continue;
        double error = 100.0 * (ia.frequency - true_count) / true_count;
        double weight = static_cast<double>(ia.samples);
        collector->instr_overall.Add(error, weight);
        collector->instr_by_conf[static_cast<int>(ia.confidence)].Add(error, weight);
      }

      // ---- Edge frequency errors (weighted by true edge executions) ----
      const Cfg& cfg = analysis.value().cfg;
      uint64_t image_base = truth.image->text_base();
      for (const CfgEdge& edge : cfg.edges()) {
        if (edge.from < 0 || edge.to < 0) continue;  // virtual endpoints
        const BasicBlock& from = cfg.blocks()[edge.from];
        uint64_t last_pc = from.end_pc - kInstrBytes;
        uint64_t last_index = (last_pc - image_base) / kInstrBytes;
        double true_count;
        if (edge.fallthrough) {
          // Fall-through executions = block executions - taken transfers.
          double exec = static_cast<double>(truth.instructions[last_index].exec_count);
          double taken = 0;
          for (const auto& [key, count] : truth.edges) {
            if (key.first == last_pc - image_base) taken += static_cast<double>(count);
          }
          true_count = exec - taken;
        } else {
          auto it = truth.edges.find(
              {last_pc - image_base, cfg.blocks()[edge.to].start_pc - image_base});
          true_count = it == truth.edges.end() ? 0.0 : static_cast<double>(it->second);
        }
        if (true_count <= 0) continue;
        double estimate = analysis.value().frequencies.edge_freq[edge.id];
        double error = 100.0 * (estimate - true_count) / true_count;
        collector->edge_overall.Add(error, true_count);
        collector->edge_by_conf[static_cast<int>(
            analysis.value().frequencies.edge_conf[edge.id])]
            .Add(error, true_count);
      }
    }
  }
}

inline void PrintHistogram(const char* title, const ErrorHistogram* by_conf,
                           const ErrorHistogram& overall) {
  std::printf("%s\n", title);
  std::printf("%8s  %8s  %8s  %8s  %8s\n", "bucket", "low%", "medium%", "high%",
              "total%");
  for (size_t b = 0; b < overall.num_buckets(); ++b) {
    double total_weight = overall.total_weight();
    auto share = [&](const ErrorHistogram& h) {
      return total_weight == 0
                 ? 0.0
                 : h.BucketPercent(b) * h.total_weight() / total_weight;
    };
    std::printf("%8s  %8.2f  %8.2f  %8.2f  %8.2f\n", overall.BucketLabel(b).c_str(),
                share(by_conf[static_cast<int>(Confidence::kLow)]),
                share(by_conf[static_cast<int>(Confidence::kMedium)]),
                share(by_conf[static_cast<int>(Confidence::kHigh)]),
                overall.BucketPercent(b));
  }
  std::printf("within  5%%: %5.1f%%\n", 100.0 * overall.FractionWithin(5));
  std::printf("within 10%%: %5.1f%%\n", 100.0 * overall.FractionWithin(10));
  std::printf("within 15%%: %5.1f%%\n", 100.0 * overall.FractionWithin(15));
}

// The accuracy-study suite (SPEC-flavoured mix).
inline std::vector<Workload> AccuracySuite(double scale, uint64_t seed) {
  WorkloadFactory factory(scale, seed);
  std::vector<Workload> suite;
  suite.push_back(factory.SpecIntLike());
  suite.push_back(factory.SpecFpLike());
  suite.push_back(factory.X11PerfLike());
  suite.push_back(factory.McCalpin(StreamKernel::kTriad));
  suite.push_back(factory.BranchHeavy());
  suite.push_back(factory.IcacheStress());
  return suite;
}

}  // namespace bench
}  // namespace dcpi

#endif  // BENCH_ACCURACY_UTIL_H_
