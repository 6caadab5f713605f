// Pass 4: flow conservation of frequency estimates.
//
// Execution counts must conserve flow (Section 6.1.4): the number of times
// a block executes equals the number of times control enters it and the
// number of times control leaves it. The estimator recovers block and edge
// frequencies independently per equivalence class, so flow conservation is
// a real cross-check, not a tautology — a broken scheduler, a wrong class,
// or a mis-indexed sample vector shows up as inflow != frequency.
//
// Sampling noise means the constraint only holds within a confidence-scaled
// tolerance. Constraints are skipped entirely when any participant has low
// or no confidence: low-confidence values are either noisy cluster
// estimates or were themselves *derived from* this constraint by the
// propagation pass (checking those would be circular).

#ifndef SRC_CHECK_FLOW_CHECK_H_
#define SRC_CHECK_FLOW_CHECK_H_

#include "src/analysis/cfg.h"
#include "src/analysis/frequency.h"
#include "src/check/check.h"

namespace dcpi {

// Checks inflow == block frequency == outflow for every block whose
// participants are all medium/high confidence. `period` is the mean
// sampling period used by the estimate. Returns true if no violation was
// appended.
bool CheckFlowConservation(const Cfg& cfg, const FrequencyResult& freq,
                           double period, CheckReport* report);

}  // namespace dcpi

#endif  // SRC_CHECK_FLOW_CHECK_H_
