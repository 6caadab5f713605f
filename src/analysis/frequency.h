// Frequency estimation from CYCLES samples (Sections 6.1.2 - 6.1.5).
//
// The estimator factors each instruction's sample count S_i (proportional
// to frequency x CPI) into its components:
//   1. group blocks and edges into frequency equivalence classes: the CFG
//      is node-split (block -> in/out vertex pair joined by a block edge),
//      closed with an exit->entry edge, and edge cycle equivalence is
//      computed (cycle-equivalent edges execute equally often);
//   2. per class, estimate the frequency from the issue points (M_i > 0):
//      in the absence of dynamic stalls S_i/M_i ~ F, so F is recovered by
//      averaging a cluster of the smaller S_i/M_i ratios (ratios within
//      1.5x of the cluster minimum), with the dependence-window refinement
//      (sum S / sum M between an instruction and the instruction it
//      statically depends on) and a sum-ratio fallback for classes with few
//      samples;
//   3. propagate estimates through the CFG flow constraints (block inflow =
//      block frequency = block outflow) with a linear worklist pass;
//   4. predict the accuracy of each estimate (low / medium / high).

#ifndef SRC_ANALYSIS_FREQUENCY_H_
#define SRC_ANALYSIS_FREQUENCY_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "src/analysis/cfg.h"
#include "src/analysis/static_schedule.h"

namespace dcpi {

enum class Confidence : uint8_t { kNone = 0, kLow, kMedium, kHigh };

const char* ConfidenceName(Confidence confidence);

// Tuning of the estimator.
inline constexpr double kClusterWidth = 1.5;          // max ratio / min ratio within a cluster
inline constexpr double kMinClusterFraction = 0.25;   // of the class's issue points
inline constexpr uint64_t kFewSamplesThreshold = 100;
inline constexpr double kMaxReasonableStall = 500.0;  // implied cycles at another issue point
inline constexpr int kMaxPropagationPasses = 64;
// Block-leading issue points absorb branch-mispredict and I-cache skid;
// when a class has enough other issue points, exclude the leaders from
// the ratio clustering.
inline constexpr size_t kMinNonleadingPoints = 2;

// The node-split equivalence graph of a CFG (step 1 above): block b becomes
// vertex pair (2b, 2b+1) joined by a block edge, entry is vertex 2B, exit is
// vertex 2B+1, and the graph is closed with an exit->entry edge. Edge order:
// B block edges (edge k <-> block k), then the CFG edges in id order (edge
// B+e <-> CFG edge e), then the closing edge last.
struct EquivalenceGraph {
  int num_vertices = 0;
  std::vector<std::pair<int, int>> edges;
};

EquivalenceGraph BuildEquivalenceGraph(const Cfg& cfg);

struct FrequencyResult {
  // Estimated execution counts over the profiled period.
  std::vector<double> block_freq;        // per block
  std::vector<Confidence> block_conf;
  std::vector<double> edge_freq;         // per CFG edge
  std::vector<Confidence> edge_conf;
  // Equivalence classes (exposed for tests and tools).
  std::vector<int> block_class;
  std::vector<int> edge_class;
  // The node-split graph the classes were computed on, kept so downstream
  // passes (the differential cycle-equivalence selfcheck) reuse it instead
  // of rebuilding. Empty (num_vertices == 0) when the CFG has missing
  // edges (no graph was built) or the result predates the estimator.
  EquivalenceGraph graph;
};

// `samples[k]` holds the CYCLES sample count of the k-th instruction of the
// procedure; `period` is the mean sampling period in cycles (so frequency =
// ratio * period). `schedules` are per-block static schedules.
FrequencyResult EstimateFrequencies(const Cfg& cfg,
                                    const std::vector<BlockSchedule>& schedules,
                                    const std::vector<uint64_t>& samples,
                                    double period);

}  // namespace dcpi

#endif  // SRC_ANALYSIS_FREQUENCY_H_
