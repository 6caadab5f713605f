// Branch prediction: a table of 2-bit saturating counters for conditional
// branches plus a small return-address stack for ret.

#ifndef SRC_CPU_BRANCH_PREDICTOR_H_
#define SRC_CPU_BRANCH_PREDICTOR_H_

#include <array>
#include <cstdint>

#include "src/isa/isa.h"

namespace dcpi {

struct PredictorStats {
  uint64_t cond_branches = 0;
  uint64_t mispredicts = 0;
};

// Counter-table and return-stack sizes of the simulated machine.
inline constexpr uint32_t kPredictorEntries = 2048;
inline constexpr uint32_t kRasEntries = 12;

class BranchPredictor {
 public:
  BranchPredictor() { table_.fill(1); }

  // Records the outcome of a conditional branch and returns whether the
  // prediction was correct.
  bool PredictConditional(uint64_t pc, bool taken);

  void PushReturn(uint64_t return_pc);

  // Pops the RAS and returns whether it matches the actual target.
  bool PopReturnMatches(uint64_t actual_target);

  const PredictorStats& stats() const { return stats_; }

 private:
  std::array<uint8_t, kPredictorEntries> table_;  // 2-bit counters, init weakly-not-taken
  std::array<uint64_t, kRasEntries> ras_ = {};
  uint32_t ras_top_ = 0;
  PredictorStats stats_;
};

}  // namespace dcpi

#endif  // SRC_CPU_BRANCH_PREDICTOR_H_
