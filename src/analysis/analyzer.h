// Procedure-level analysis facade: dcpicalc's engine (Sections 6.1 - 6.3).
//
// Combines CFG construction, static scheduling, frequency estimation, CPI
// computation, and "guilty until proven innocent" culprit identification
// for dynamic stalls, and aggregates a Figure 4 style stall summary.

#ifndef SRC_ANALYSIS_ANALYZER_H_
#define SRC_ANALYSIS_ANALYZER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/analysis/cfg.h"
#include "src/analysis/frequency.h"
#include "src/analysis/static_schedule.h"
#include "src/check/check.h"
#include "src/memory/memory_system.h"
#include "src/profiledb/profile.h"

namespace dcpi {

enum class CulpritKind : uint8_t {
  kIcache = 0,
  kItb,
  kDcache,
  kDtb,
  kWriteBuffer,
  kSync,
  kBranchMispredict,
  kImulBusy,
  kFdivBusy,
  kCulpritKindCount,
};

inline constexpr int kNumCulpritKinds = static_cast<int>(CulpritKind::kCulpritKindCount);

const char* CulpritKindName(CulpritKind kind);
char CulpritKindLetter(CulpritKind kind);  // Figure 2's bubble letters

// Costs of one cache miss as the culprit rules bound it: a fill from
// memory (pessimistic) and a fill from the board cache (optimistic).
inline constexpr uint64_t kMaxFillCycles = kBoardLatency + kMemoryLatency;
inline constexpr uint64_t kMinFillCycles = kBoardLatency;
// Predecessors executed less than this fraction of the stalled
// instruction's frequency are ignored by the I-cache rule.
inline constexpr double kIcacheRuleFreqFraction = 0.5;
// How many instructions back to search for producing loads / busy units.
inline constexpr int kLookbackInstructions = 8;
// Dynamic stall below this (cycles per execution) is ignored.
inline constexpr double kMinDynamicStall = 0.3;

struct AnalysisConfig {
  // Run the src/check verification passes (CFG structure, differential
  // cycle equivalence, flow conservation, schedule invariants) over the
  // analysis and record the findings in ProcedureAnalysis::selfcheck_report.
  // Honored by AnalyzeProcedureChecked (src/check/selfcheck.h), which the
  // CLI tools call; plain AnalyzeProcedure ignores it.
  bool selfcheck = false;
};

struct InstructionAnalysis {
  uint64_t pc = 0;
  DecodedInst inst;
  int block = -1;
  uint64_t samples = 0;        // CYCLES samples
  uint64_t m = 0;              // static minimum head cycles
  bool dual_issued = false;
  double frequency = 0;        // estimated executions
  double cpi = 0;              // estimated cycles at head per execution
  Confidence confidence = Confidence::kNone;

  StaticStallKind static_stall = StaticStallKind::kNone;
  uint64_t static_stall_cycles = 0;
  uint64_t static_culprit_pc = 0;  // 0 = none

  double dynamic_stall = 0;  // max(0, cpi - m) cycles per execution
  bool culprits[kNumCulpritKinds] = {};
  uint64_t dcache_culprit_pc = 0;  // the load blamed for a D-cache stall
  bool unexplained = false;        // dynamic stall with no surviving culprit
  // With IMISS samples, a lower bound on this instruction's I-cache stall
  // cycles (events x optimistic fill cost) — the bottom of Figure 10's
  // range when no other evidence pins the cause.
  double icache_floor_cycles = 0;
};

// Figure 4 style summary: percentages of all cycles in the procedure.
struct StallSummary {
  double total_cycles = 0;  // samples * period
  double dynamic_min_pct[kNumCulpritKinds] = {};
  double dynamic_max_pct[kNumCulpritKinds] = {};
  double unexplained_stall_pct = 0;
  double unexplained_gain_pct = 0;  // cpi below static minimum
  // Every dynamic stall cycle counted exactly once (the per-cause ranges
  // above overlap when several culprits remain possible).
  double total_dynamic_pct = 0;
  double static_pct_slotting = 0;
  double static_pct_ra = 0;
  double static_pct_rb = 0;
  double static_pct_rc = 0;
  double static_pct_fu = 0;
  double execution_pct = 0;

  double subtotal_dynamic_max() const;
  double subtotal_static() const;
};

struct ProcedureAnalysis {
  std::string proc_name;
  Cfg cfg;
  std::vector<BlockSchedule> schedules;  // per block
  std::vector<InstructionAnalysis> instructions;
  FrequencyResult frequencies;
  double best_case_cpi = 0;
  double actual_cpi = 0;
  double total_frequency = 0;  // sum of per-instruction frequencies
  StallSummary summary;
  // Filled by AnalyzeProcedureChecked when AnalysisConfig::selfcheck is set.
  CheckReport selfcheck_report;
};

// Reusable per-thread working buffers for AnalyzeProcedure. A caller
// analyzing many procedures (the AnalysisEngine) hands the same scratch to
// every call on one thread, so the dense sample vectors and per-block
// instruction buffer amortize their allocations across procedures instead
// of growing from empty each time. Not thread-safe: one scratch per thread.
struct AnalysisScratch {
  std::vector<uint64_t> samples;           // dense CYCLES samples
  std::vector<uint64_t> event_samples[4];  // imiss, dmiss, branchmp, dtbmiss
  std::vector<DecodedInst> block_instrs;   // per-block schedule input
};

// Analyzes one procedure. `cycles` is required; the event profiles may be
// null — absent event samples leave more culprits unruled, exactly like
// the paper's pessimistic default (the Figure 2 DTB note). `scratch` is
// optional; passing one across calls reuses its buffers.
Result<ProcedureAnalysis> AnalyzeProcedure(const ExecutableImage& image,
                                           const ProcedureSymbol& proc,
                                           const ImageProfile& cycles,
                                           const ImageProfile* imiss,
                                           const ImageProfile* dmiss,
                                           const ImageProfile* branchmp,
                                           const ImageProfile* dtbmiss,
                                           const AnalysisConfig& config,
                                           AnalysisScratch* scratch = nullptr);

}  // namespace dcpi

#endif  // SRC_ANALYSIS_ANALYZER_H_
