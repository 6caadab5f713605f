// Section 7 (future work): double sampling for edge samples.
//
// Paper: "During selected performance counter interrupts, a second
// interrupt is set up to occur immediately after returning from the first,
// providing two PC values along an execution path... directly providing
// edge samples." The paper prototypes this but publishes no numbers.
//
// This bench implements the comparison the proposal implies: for each
// conditional branch, estimate its taken fraction (a) from flow-constraint
// propagation alone (Figure 9's method) and (b) from double-sample pairs,
// and score both against the simulator's exact edge counts.
//
// Expected shape: double sampling is markedly more accurate on branches
// whose two targets are in the same frequency-equivalence blind spot. Gate
// (exit 1): at least 5 branches are scored, and double sampling's mean
// error is at most flow propagation's.

#include <cmath>

#include "bench/bench_util.h"
#include "src/support/stats.h"
#include "src/support/text_table.h"

using namespace dcpi;
using namespace dcpi::bench;

int main() {
  PrintHeader("bench_sec7_double_sampling: edge samples vs flow propagation",
              "Section 7 (future work prototype)");

  RunningStat flow_err, edge_err;
  int branches = 0;

  WorkloadFactory factory(/*scale=*/0.6, /*seed=*/1);
  std::vector<Workload> suite;
  suite.push_back(factory.SpecIntLike());
  suite.push_back(factory.BranchHeavy());
  suite.push_back(factory.X11PerfLike());

  for (Workload& workload : suite) {
    SystemConfig config;
    config.kernel.record_ground_truth = true;  // exact taken fractions
    config.mode = ProfilingMode::kCycles;
    config.period_scale = 1.0 / 32;
    config.free_profiling = true;
    config.double_sampling = true;
    RunOutput run = RunProfiled(workload, config);
    System& system = *run.system;

    // Merge edge samples from all CPUs.
    PerfCounters::EdgeSampleMap pairs;
    for (uint32_t cpu = 0; cpu < system.kernel().num_cpus(); ++cpu) {
      for (const auto& [key, count] : system.counters(cpu)->edge_samples()) {
        pairs[key] += count;
      }
    }

    for (const ImageTruth& truth : system.kernel().ground_truth().images()) {
      const ImageProfile* cycles =
          system.daemon()->FindProfile(truth.image->name(), EventType::kCycles);
      if (cycles == nullptr) continue;
      for (const ProcedureSymbol& proc : truth.image->procedures()) {
        AnalysisConfig analysis_config;
        Result<ProcedureAnalysis> analysis =
            AnalyzeProcedure(*truth.image, proc, *cycles, nullptr, nullptr, nullptr,
                             nullptr, analysis_config);
        if (!analysis.ok()) continue;
        const Cfg& cfg = analysis.value().cfg;
        uint64_t base = truth.image->text_base();

        for (const BasicBlock& block : cfg.blocks()) {
          uint64_t branch_pc = block.end_pc - kInstrBytes;
          auto inst = Decode(*truth.image->InstructionAt(branch_pc));
          if (inst->klass() != InstrClass::kCondBranch) continue;
          uint64_t target = inst->BranchTarget(branch_pc);

          // Ground truth taken fraction.
          uint64_t exec = truth.instructions[(branch_pc - base) / kInstrBytes].exec_count;
          auto edge_it = truth.edges.find({branch_pc - base, target - base});
          if (exec < 3000 || edge_it == truth.edges.end()) continue;
          double true_taken =
              static_cast<double>(edge_it->second) / static_cast<double>(exec);
          if (true_taken < 0.02 || true_taken > 0.98) continue;  // uninteresting

          // (a) flow propagation: taken edge freq / block freq.
          double flow_taken = -1;
          for (int e : block.out_edges) {
            const CfgEdge& edge = cfg.edges()[e];
            if (!edge.fallthrough && analysis.value().frequencies.block_freq[block.id] > 0) {
              flow_taken = analysis.value().frequencies.edge_freq[e] /
                           analysis.value().frequencies.block_freq[block.id];
            }
          }
          // (b) double samples: classify the pair's second PC by the block
          // it falls in (taken target's block vs fall-through block).
          int target_block = cfg.BlockIndexFor(target);
          int fall_block = cfg.BlockIndexFor(block.end_pc);
          uint64_t pair_taken = 0, pair_fall = 0;
          for (const auto& [key, count] : pairs) {
            auto [pid, from, to] = key;
            (void)pid;
            if (from != branch_pc) continue;
            int to_block = cfg.BlockIndexFor(to);
            if (to_block == target_block) {
              pair_taken += count;
            } else if (to_block == fall_block) {
              pair_fall += count;
            }
          }
          uint64_t pair_total = pair_taken + pair_fall;
          if (pair_total < 20 || flow_taken < 0) continue;
          double ds_taken =
              static_cast<double>(pair_taken) / static_cast<double>(pair_total);

          flow_err.Add(std::fabs(flow_taken - true_taken));
          edge_err.Add(std::fabs(ds_taken - true_taken));
          ++branches;
        }
      }
    }
  }

  std::printf("conditional branches scored: %d\n\n", branches);
  TextTable table;
  table.SetHeader({"method", "mean |taken-fraction error|", "max"});
  table.AddRow({"flow propagation (Fig 9 method)", TextTable::Fixed(flow_err.mean(), 3),
                TextTable::Fixed(flow_err.max(), 3)});
  table.AddRow({"double sampling (Sec 7)", TextTable::Fixed(edge_err.mean(), 3),
                TextTable::Fixed(edge_err.max(), 3)});
  table.Print();
  std::printf("\npaper: proposal only; no published numbers. Shape expectation:\n"
              "double sampling should not be worse, and helps where equivalence\n"
              "classes leave branch biases unconstrained.\n");

  constexpr int kMinBranches = 5;
  if (branches < kMinBranches) {
    std::fprintf(stderr,
                 "GATE FAILED: conditional branches scored: %d, need at least %d\n",
                 branches, kMinBranches);
    return 1;
  }
  if (edge_err.mean() > flow_err.mean()) {
    std::fprintf(stderr,
                 "GATE FAILED: double sampling (Sec 7) mean error %.3f exceeds flow "
                 "propagation's %.3f\n",
                 edge_err.mean(), flow_err.mean());
    return 1;
  }
  std::printf("gate passed: %d branches scored, double sampling no worse than flow "
              "propagation\n",
              branches);
  return 0;
}
