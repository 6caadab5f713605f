#include "src/analysis/frequency.h"

#include <algorithm>
#include <cmath>

#include "src/analysis/cycle_equiv.h"

namespace dcpi {

const char* ConfidenceName(Confidence confidence) {
  switch (confidence) {
    case Confidence::kNone:
      return "none";
    case Confidence::kLow:
      return "low";
    case Confidence::kMedium:
      return "medium";
    case Confidence::kHigh:
      return "high";
  }
  return "unknown";
}

namespace {

struct IssuePoint {
  double ratio;      // S/M (possibly window-refined)
  uint64_t samples;  // S_i
  uint64_t m;        // M_i
  bool block_leader; // first instruction of its basic block
};

struct ClassData {
  std::vector<int> blocks;
  std::vector<int> edges;
  std::vector<IssuePoint> issue_points;
  uint64_t total_samples = 0;
  uint64_t total_m = 0;
  double ratio = -1.0;  // estimated F in samples-per-cycle-of-M units
  Confidence conf = Confidence::kNone;
};

// Estimates a class frequency ratio from its issue points; returns the
// confidence of the estimate.
Confidence EstimateClassRatio(ClassData* cls) {
  if (cls->total_m == 0) return Confidence::kNone;
  double sum_ratio = static_cast<double>(cls->total_samples) /
                     static_cast<double>(cls->total_m);
  if (cls->issue_points.empty()) return Confidence::kNone;
  if (cls->total_samples < kFewSamplesThreshold) {
    // Too few samples for clustering: aggregate ratio, low confidence.
    cls->ratio = sum_ratio;
    return Confidence::kLow;
  }

  // Prefer non-leading issue points: the first instruction of a block
  // absorbs front-end penalties (mispredict redirect, I-cache refill) that
  // inflate its ratio.
  size_t nonleading = 0;
  for (const IssuePoint& p : cls->issue_points) {
    if (!p.block_leader) ++nonleading;
  }
  bool use_all = nonleading < kMinNonleadingPoints;
  std::vector<double> ratios;
  ratios.reserve(cls->issue_points.size());
  for (const IssuePoint& p : cls->issue_points) {
    if (use_all || !p.block_leader) ratios.push_back(p.ratio);
  }
  std::sort(ratios.begin(), ratios.end());

  size_t min_points = std::max<size_t>(
      1, static_cast<size_t>(std::ceil(kMinClusterFraction *
                                       static_cast<double>(ratios.size()))));

  for (size_t start = 0; start < ratios.size(); ++start) {
    if (ratios[start] <= 0) continue;
    double lo = ratios[start];
    double hi = lo * kClusterWidth;
    size_t end = start;
    double sum = 0;
    while (end < ratios.size() && ratios[end] <= hi) sum += ratios[end++];
    size_t count = end - start;
    if (count < min_points) continue;
    double estimate = sum / static_cast<double>(count);
    // Anomaly check: would this estimate imply an unreasonable stall at
    // some other issue point in the class?
    bool anomalous = false;
    for (const IssuePoint& p : cls->issue_points) {
      double implied_cycles = static_cast<double>(p.samples) / estimate;
      if (implied_cycles - static_cast<double>(p.m) > kMaxReasonableStall) {
        anomalous = true;
        break;
      }
    }
    if (anomalous && start + 1 < ratios.size()) continue;
    cls->ratio = estimate;
    double tightness = ratios[end - 1] / std::max(1e-12, ratios[start]);
    if (count >= 3 && tightness <= 1.25) return Confidence::kHigh;
    if (count >= 2) return Confidence::kMedium;
    return Confidence::kLow;
  }
  cls->ratio = sum_ratio;
  return Confidence::kLow;
}

}  // namespace

EquivalenceGraph BuildEquivalenceGraph(const Cfg& cfg) {
  const int num_blocks = static_cast<int>(cfg.blocks().size());
  const int entry_vertex = 2 * num_blocks;
  const int exit_vertex = 2 * num_blocks + 1;
  EquivalenceGraph graph;
  graph.num_vertices = 2 * num_blocks + 2;
  graph.edges.reserve(num_blocks + cfg.edges().size() + 1);
  for (int b = 0; b < num_blocks; ++b) graph.edges.push_back({2 * b, 2 * b + 1});
  for (const CfgEdge& e : cfg.edges()) {
    int u = e.from == kCfgEntry ? entry_vertex : 2 * e.from + 1;
    int v = e.to == kCfgExit ? exit_vertex : 2 * e.to;
    graph.edges.push_back({u, v});
  }
  graph.edges.push_back({exit_vertex, entry_vertex});
  return graph;
}

FrequencyResult EstimateFrequencies(const Cfg& cfg,
                                    const std::vector<BlockSchedule>& schedules,
                                    const std::vector<uint64_t>& samples,
                                    double period) {
  const int num_blocks = static_cast<int>(cfg.blocks().size());
  const int num_edges = static_cast<int>(cfg.edges().size());
  FrequencyResult result;
  result.block_freq.assign(num_blocks, -1.0);
  result.block_conf.assign(num_blocks, Confidence::kNone);
  result.edge_freq.assign(num_edges, -1.0);
  result.edge_conf.assign(num_edges, Confidence::kNone);
  result.block_class.assign(num_blocks, -1);
  result.edge_class.assign(num_edges, -1);
  if (num_blocks == 0 || period <= 0) return result;

  // ---- Equivalence classes via the node-split graph ----
  if (!cfg.missing_edges()) {
    result.graph = BuildEquivalenceGraph(cfg);
    std::vector<int> classes =
        CycleEquivalence(result.graph.num_vertices, result.graph.edges);
    for (int b = 0; b < num_blocks; ++b) result.block_class[b] = classes[b];
    for (int e = 0; e < num_edges; ++e) result.edge_class[e] = classes[num_blocks + e];
  } else {
    // Unresolved indirect jumps: every block and edge is its own class.
    int next = 0;
    for (int b = 0; b < num_blocks; ++b) result.block_class[b] = next++;
    for (int e = 0; e < num_edges; ++e) result.edge_class[e] = next++;
  }

  // ---- Gather per-class issue points ----
  int num_classes = 0;
  for (int c : result.block_class) num_classes = std::max(num_classes, c + 1);
  for (int c : result.edge_class) num_classes = std::max(num_classes, c + 1);
  std::vector<ClassData> classes(num_classes);
  for (int b = 0; b < num_blocks; ++b) classes[result.block_class[b]].blocks.push_back(b);
  for (int e = 0; e < num_edges; ++e) classes[result.edge_class[e]].edges.push_back(e);

  for (int b = 0; b < num_blocks; ++b) {
    ClassData& cls = classes[result.block_class[b]];
    const BasicBlock& block = cfg.blocks()[b];
    const BlockSchedule& schedule = schedules[b];
    size_t first =
        static_cast<size_t>((block.start_pc - cfg.proc_start()) / kInstrBytes);
    for (size_t k = 0; k < schedule.instrs.size(); ++k) {
      uint64_t s = samples[first + k];
      uint64_t m = schedule.instrs[k].m;
      cls.total_samples += s;
      cls.total_m += m;
      if (m == 0) continue;
      IssuePoint point{static_cast<double>(s) / static_cast<double>(m), s, m, k == 0};
      // Dependence-window refinement: when this issue point's M derives
      // from a dependency on instruction j, the window sum is less
      // sensitive to overlapped dynamic stalls (Section 6.1.3, item 4).
      int culprit = schedule.instrs[k].culprit;
      if (culprit >= 0 && static_cast<size_t>(culprit) < k) {
        uint64_t window_s = 0, window_m = 0;
        for (size_t j = culprit + 1; j <= k; ++j) {
          window_s += samples[first + j];
          window_m += schedule.instrs[j].m;
        }
        if (window_m > 0) {
          point.ratio = static_cast<double>(window_s) / static_cast<double>(window_m);
        }
      }
      cls.issue_points.push_back(point);
    }
  }

  // ---- Per-class estimates ----
  for (ClassData& cls : classes) {
    cls.conf = EstimateClassRatio(&cls);
    if (cls.ratio < 0) continue;
    double freq = cls.ratio * period;
    for (int b : cls.blocks) {
      result.block_freq[b] = freq;
      result.block_conf[b] = cls.conf;
    }
    for (int e : cls.edges) {
      result.edge_freq[e] = freq;
      result.edge_conf[e] = cls.conf;
    }
  }

  // ---- Local propagation via flow constraints ----
  auto assign_edge = [&](int e, double value, Confidence conf) {
    int cls = result.edge_class[e];
    for (int member : classes[cls].edges) {
      if (result.edge_freq[member] < 0) {
        result.edge_freq[member] = value;
        result.edge_conf[member] = conf;
      }
    }
    for (int member : classes[cls].blocks) {
      if (result.block_freq[member] < 0) {
        result.block_freq[member] = value;
        result.block_conf[member] = conf;
      }
    }
  };
  auto assign_block = [&](int b, double value, Confidence conf) {
    int cls = result.block_class[b];
    for (int member : classes[cls].blocks) {
      if (result.block_freq[member] < 0) {
        result.block_freq[member] = value;
        result.block_conf[member] = conf;
      }
    }
    for (int member : classes[cls].edges) {
      if (result.edge_freq[member] < 0) {
        result.edge_freq[member] = value;
        result.edge_conf[member] = conf;
      }
    }
  };

  for (int pass = 0; pass < kMaxPropagationPasses; ++pass) {
    bool changed = false;
    for (int b = 0; b < num_blocks; ++b) {
      const BasicBlock& block = cfg.blocks()[b];
      for (const std::vector<int>* edge_set : {&block.in_edges, &block.out_edges}) {
        double sum_known = 0;
        int unknown = -1;
        int unknown_count = 0;
        for (int e : *edge_set) {
          if (result.edge_freq[e] < 0) {
            unknown = e;
            ++unknown_count;
          } else {
            sum_known += result.edge_freq[e];
          }
        }
        if (edge_set->empty()) continue;
        if (unknown_count == 0 && result.block_freq[b] < 0) {
          assign_block(b, sum_known, Confidence::kLow);
          changed = true;
        } else if (unknown_count == 1 && result.block_freq[b] >= 0) {
          double value = std::max(0.0, result.block_freq[b] - sum_known);
          assign_edge(unknown, value, Confidence::kLow);
          changed = true;
        }
      }
    }
    if (!changed) break;
  }

  // Anything still unknown defaults to zero with no confidence.
  for (int b = 0; b < num_blocks; ++b) {
    if (result.block_freq[b] < 0) result.block_freq[b] = 0;
  }
  for (int e = 0; e < num_edges; ++e) {
    if (result.edge_freq[e] < 0) result.edge_freq[e] = 0;
  }
  return result;
}

}  // namespace dcpi
