#include "src/check/flow_check.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>

namespace dcpi {

namespace {

// Relative tolerance when every participant is high confidence.
constexpr double kHighRelTol = 0.05;
// Relative tolerance when some participant is only medium confidence.
constexpr double kMediumRelTol = 0.20;
// Absolute slack in sampling periods: one CYCLES sample moves an estimate
// by roughly `period` executions, so frequencies within a few samples of
// each other are indistinguishable.
constexpr double kSlackSamples = 2.0;

std::string FormatFreq(double value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.1f", value);
  return buf;
}

}  // namespace

bool CheckFlowConservation(const Cfg& cfg, const FrequencyResult& freq,
                           double period, CheckReport* report) {
  const int num_blocks = static_cast<int>(cfg.blocks().size());
  if (static_cast<int>(freq.block_freq.size()) != num_blocks ||
      freq.edge_freq.size() != cfg.edges().size()) {
    report->AddViolation(CheckPass::kFlowConserve, CheckSeverity::kError,
                         "frequency result vectors do not match the CFG");
    return false;
  }

  bool clean = true;
  for (int b = 0; b < num_blocks; ++b) {
    if (freq.block_conf[b] < Confidence::kMedium) continue;
    const BasicBlock& block = cfg.blocks()[b];
    const char* directions[2] = {"inflow", "outflow"};
    const std::vector<int>* edge_sets[2] = {&block.in_edges, &block.out_edges};
    for (int d = 0; d < 2; ++d) {
      double sum = 0;
      Confidence weakest = freq.block_conf[b];
      bool usable = !edge_sets[d]->empty();
      for (int e : *edge_sets[d]) {
        if (freq.edge_conf[e] < Confidence::kMedium) {
          usable = false;
          break;
        }
        sum += freq.edge_freq[e];
        weakest = std::min(weakest, freq.edge_conf[e]);
      }
      if (!usable) continue;
      double rel = weakest == Confidence::kHigh ? kHighRelTol : kMediumRelTol;
      double tolerance = rel * std::max(freq.block_freq[b], sum) + kSlackSamples * period;
      if (std::fabs(sum - freq.block_freq[b]) <= tolerance) continue;
      clean = false;
      std::string edge_list;
      for (int e : *edge_sets[d]) {
        if (!edge_list.empty()) edge_list += ", ";
        edge_list += "edge " + std::to_string(e) + "=" + FormatFreq(freq.edge_freq[e]);
      }
      CheckViolation& v = report->AddViolation(
          CheckPass::kFlowConserve, CheckSeverity::kError,
          std::string(directions[d]) + " " + FormatFreq(sum) +
              " does not match block frequency " +
              FormatFreq(freq.block_freq[b]) + " (tolerance " +
              FormatFreq(tolerance) + "; " + edge_list + ")");
      v.block = b;
      v.pc = block.start_pc;
    }
  }
  return clean;
}

}  // namespace dcpi
