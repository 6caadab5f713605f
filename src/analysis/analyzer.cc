#include "src/analysis/analyzer.h"

#include <algorithm>
#include <cmath>

namespace dcpi {

const char* CulpritKindName(CulpritKind kind) {
  switch (kind) {
    case CulpritKind::kIcache:
      return "I-cache (not ITB)";
    case CulpritKind::kItb:
      return "ITB/I-cache miss";
    case CulpritKind::kDcache:
      return "D-cache miss";
    case CulpritKind::kDtb:
      return "DTB miss";
    case CulpritKind::kWriteBuffer:
      return "Write buffer";
    case CulpritKind::kSync:
      return "Synchronization";
    case CulpritKind::kBranchMispredict:
      return "Branch mispredict";
    case CulpritKind::kImulBusy:
      return "IMUL busy";
    case CulpritKind::kFdivBusy:
      return "FDIV busy";
    case CulpritKind::kCulpritKindCount:
      break;
  }
  return "unknown";
}

char CulpritKindLetter(CulpritKind kind) {
  switch (kind) {
    case CulpritKind::kIcache:
      return 'i';
    case CulpritKind::kItb:
      return 't';
    case CulpritKind::kDcache:
      return 'd';
    case CulpritKind::kDtb:
      return 'D';
    case CulpritKind::kWriteBuffer:
      return 'w';
    case CulpritKind::kSync:
      return 'y';
    case CulpritKind::kBranchMispredict:
      return 'p';
    case CulpritKind::kImulBusy:
      return 'm';
    case CulpritKind::kFdivBusy:
      return 'f';
    case CulpritKind::kCulpritKindCount:
      break;
  }
  return '?';
}

double StallSummary::subtotal_dynamic_max() const {
  double total = 0;
  for (double pct : dynamic_max_pct) total += pct;
  return total + unexplained_stall_pct;
}

double StallSummary::subtotal_static() const {
  return static_pct_slotting + static_pct_ra + static_pct_rb + static_pct_rc +
         static_pct_fu;
}

namespace {

// Finds the producing instruction of `reg` searching backwards from
// instruction `index` within its block; returns the procedure-relative
// index or -1. `found_load` is set if the producer is a load.
int FindProducer(const std::vector<InstructionAnalysis>& instrs, int index,
                 int block_first, RegRef reg, int lookback, bool* found_load) {
  *found_load = false;
  int scanned = 0;
  for (int j = index - 1; j >= block_first && scanned < lookback; --j, ++scanned) {
    auto dest = instrs[j].inst.DestReg();
    if (dest.has_value() && !dest->IsZero() && *dest == reg) {
      *found_load = instrs[j].inst.IsLoad();
      return j;
    }
  }
  return -1;
}

}  // namespace

Result<ProcedureAnalysis> AnalyzeProcedure(const ExecutableImage& image,
                                           const ProcedureSymbol& proc,
                                           const ImageProfile& cycles,
                                           const ImageProfile* imiss,
                                           const ImageProfile* dmiss,
                                           const ImageProfile* branchmp,
                                           const ImageProfile* dtbmiss,
                                           const AnalysisConfig& /*config*/,
                                           AnalysisScratch* scratch) {
  AnalysisScratch local_scratch;
  if (scratch == nullptr) scratch = &local_scratch;
  ProcedureAnalysis analysis;
  analysis.proc_name = proc.name;
  Result<Cfg> cfg = Cfg::Build(image, proc);
  if (!cfg.ok()) return cfg.status();
  analysis.cfg = std::move(cfg.value());
  const Cfg& graph = analysis.cfg;

  const size_t num_instrs = (proc.end - proc.start) / kInstrBytes;

  // Dense per-procedure sample vectors: one ordered-map range walk per
  // profile instead of a map lookup per instruction.
  const uint64_t begin_off = image.PcToOffset(proc.start);
  const uint64_t end_off = image.PcToOffset(proc.end);
  std::vector<uint64_t>& samples = scratch->samples;
  cycles.ExtractDense(begin_off, end_off, kInstrBytes, &samples);
  const ImageProfile* event_profiles[4] = {imiss, dmiss, branchmp, dtbmiss};
  for (int ev = 0; ev < 4; ++ev) {
    if (event_profiles[ev] != nullptr) {
      event_profiles[ev]->ExtractDense(begin_off, end_off, kInstrBytes,
                                       &scratch->event_samples[ev]);
    }
  }

  // Per-instruction decode + samples.
  analysis.instructions.resize(num_instrs);
  for (size_t k = 0; k < num_instrs; ++k) {
    uint64_t pc = proc.start + k * kInstrBytes;
    InstructionAnalysis& ia = analysis.instructions[k];
    ia.pc = pc;
    auto word = image.InstructionAt(pc);
    auto decoded = word ? Decode(*word) : std::nullopt;
    if (!decoded) return Internal("undecodable instruction in " + proc.name);
    ia.inst = *decoded;
    ia.samples = samples[k];
    ia.block = graph.BlockIndexFor(pc);
  }

  // Static schedules per block.
  analysis.schedules.resize(graph.blocks().size());
  for (size_t b = 0; b < graph.blocks().size(); ++b) {
    const BasicBlock& block = graph.blocks()[b];
    std::vector<DecodedInst>& block_instrs = scratch->block_instrs;
    block_instrs.clear();
    size_t first = (block.start_pc - proc.start) / kInstrBytes;
    for (size_t k = 0; k < block.num_instructions(); ++k) {
      block_instrs.push_back(analysis.instructions[first + k].inst);
    }
    analysis.schedules[b] = ScheduleBlock(block_instrs);
    for (size_t k = 0; k < block.num_instructions(); ++k) {
      InstructionAnalysis& ia = analysis.instructions[first + k];
      const StaticInstr& si = analysis.schedules[b].instrs[k];
      ia.m = si.m;
      ia.dual_issued = si.dual_issued;
      ia.static_stall = si.stall;
      ia.static_stall_cycles = si.stall_cycles;
      if (si.culprit >= 0) {
        ia.static_culprit_pc = block.start_pc + si.culprit * kInstrBytes;
      }
    }
  }

  // Frequencies and CPI.
  double period = cycles.mean_period();
  analysis.frequencies = EstimateFrequencies(graph, analysis.schedules, samples, period);
  for (InstructionAnalysis& ia : analysis.instructions) {
    if (ia.block >= 0) {
      ia.frequency = analysis.frequencies.block_freq[ia.block];
      ia.confidence = analysis.frequencies.block_conf[ia.block];
    }
    if (ia.frequency > 0) {
      ia.cpi = static_cast<double>(ia.samples) * period / ia.frequency;
      ia.dynamic_stall = std::max(0.0, ia.cpi - static_cast<double>(ia.m));
    }
  }

  // ---- Culprit identification ----
  // Event lookups index the dense per-procedure vectors extracted above.
  // Every pc passed here is inside the procedure (culprit pcs come from
  // the same basic block).
  enum { kEvImiss = 0, kEvDmiss, kEvBranchMp, kEvDtbMiss };
  auto event_count = [&](int which, uint64_t pc) -> double {
    const ImageProfile* profile = event_profiles[which];
    if (profile == nullptr) return -1.0;  // event not monitored
    uint64_t count = scratch->event_samples[which][(pc - proc.start) / kInstrBytes];
    return static_cast<double>(count) * profile->mean_period();
  };

  for (size_t k = 0; k < num_instrs; ++k) {
    InstructionAnalysis& ia = analysis.instructions[k];
    if (ia.dynamic_stall < kMinDynamicStall || ia.frequency <= 0) continue;
    const BasicBlock& block = graph.blocks()[ia.block];
    int block_first = static_cast<int>((block.start_pc - proc.start) / kInstrBytes);
    bool at_block_head = ia.pc == block.start_pc;

    // --- I-cache / ITB (Section 6.3's worked example) ---
    bool icache_candidate;
    if (!at_block_head) {
      // Mid-block: only possible at a cache-line boundary.
      icache_candidate = ia.pc % kIcacheGeometry.line_bytes == 0;
    } else {
      // Block head: ruled out if every frequently-executed predecessor's
      // last instruction shares this instruction's cache line.
      icache_candidate = false;
      uint64_t line = ia.pc / kIcacheGeometry.line_bytes;
      for (int e : block.in_edges) {
        const CfgEdge& edge = graph.edges()[e];
        if (edge.from == kCfgEntry) {
          icache_candidate = true;  // callers are unknown
          continue;
        }
        double edge_freq = analysis.frequencies.edge_freq[e];
        if (edge_freq < kIcacheRuleFreqFraction * ia.frequency && edge_freq >= 0) {
          continue;  // rarely-taken edge: ignore
        }
        uint64_t pred_last = graph.blocks()[edge.from].end_pc - kInstrBytes;
        if (pred_last / kIcacheGeometry.line_bytes != line) icache_candidate = true;
      }
      if (block.in_edges.empty()) icache_candidate = true;
    }
    if (icache_candidate) {
      // IMISS samples place an upper bound on I-cache stall cycles, and an
      // optimistic lower bound (each observed miss costs at least a board
      // fill).
      double imiss_events = event_count(kEvImiss, ia.pc);
      double stall_cycles_total = ia.dynamic_stall * ia.frequency;
      if (imiss_events >= 0) {
        double bound = imiss_events * static_cast<double>(kMaxFillCycles);
        if (bound < 0.05 * stall_cycles_total) icache_candidate = false;
        if (icache_candidate) {
          ia.icache_floor_cycles = std::min(
              stall_cycles_total, imiss_events * static_cast<double>(kMinFillCycles));
        }
      }
    }
    ia.culprits[static_cast<int>(CulpritKind::kIcache)] = icache_candidate;
    ia.culprits[static_cast<int>(CulpritKind::kItb)] =
        icache_candidate && at_block_head;

    // --- D-cache: an operand produced by a load (look back in the block);
    // at the block head the producer may be in a predecessor, so stay
    // pessimistic. Loads/stores themselves may also wait on a D-cache-busy
    // conflict. ---
    bool dcache_candidate = false;
    RegRef srcs[3];
    int nsrcs = ia.inst.SourceRegs(srcs);
    for (int s = 0; s < nsrcs; ++s) {
      bool found_load = false;
      int producer = FindProducer(analysis.instructions, static_cast<int>(k), block_first,
                                  srcs[s], kLookbackInstructions, &found_load);
      if (producer >= 0 && found_load) {
        dcache_candidate = true;
        ia.dcache_culprit_pc = analysis.instructions[producer].pc;
      } else if (producer < 0 &&
                 static_cast<int>(k) - block_first < kLookbackInstructions) {
        // Producer not in this block: pessimistically possible.
        dcache_candidate = true;
      }
    }
    if (dcache_candidate) {
      double dmiss_events = event_count(kEvDmiss, ia.dcache_culprit_pc != 0
                                                      ? ia.dcache_culprit_pc
                                                      : ia.pc);
      if (dmiss_events >= 0) {
        double bound = dmiss_events * static_cast<double>(kMaxFillCycles);
        if (bound < 0.05 * ia.dynamic_stall * ia.frequency) dcache_candidate = false;
      }
    }
    ia.culprits[static_cast<int>(CulpritKind::kDcache)] = dcache_candidate;

    // --- DTB: loads and stores (and consumers of loads). ---
    bool dtb_candidate =
        ia.inst.IsLoad() || ia.inst.IsStore() || ia.dcache_culprit_pc != 0;
    if (dtb_candidate) {
      double dtb_events = event_count(kEvDtbMiss, ia.pc);
      if (dtb_events >= 0 && dtb_events < 0.5) dtb_candidate = false;
    }
    ia.culprits[static_cast<int>(CulpritKind::kDtb)] = dtb_candidate;

    // --- Write buffer: stores only. ---
    ia.culprits[static_cast<int>(CulpritKind::kWriteBuffer)] = ia.inst.IsStore();

    // --- Synchronization: memory barriers. ---
    ia.culprits[static_cast<int>(CulpritKind::kSync)] =
        ia.inst.klass() == InstrClass::kBarrier;

    // --- Branch mispredict: block heads whose predecessors end in a
    // conditional branch or indirect jump, and fall-through of one. ---
    bool mp_candidate = false;
    if (at_block_head) {
      for (int e : block.in_edges) {
        const CfgEdge& edge = graph.edges()[e];
        if (edge.from == kCfgEntry) continue;
        uint64_t pred_last = graph.blocks()[edge.from].end_pc - kInstrBytes;
        const DecodedInst& pred = analysis.instructions[(pred_last - proc.start) /
                                                        kInstrBytes]
                                      .inst;
        InstrClass pk = pred.klass();
        if (pk == InstrClass::kCondBranch || pk == InstrClass::kJump) {
          mp_candidate = true;
        }
      }
    }
    if (mp_candidate) {
      double mp_events = event_count(kEvBranchMp, ia.pc);
      if (mp_events >= 0) {
        double bound = mp_events * static_cast<double>(kMispredictPenalty) * 4;
        if (bound < 0.05 * ia.dynamic_stall * ia.frequency) mp_candidate = false;
      }
    }
    ia.culprits[static_cast<int>(CulpritKind::kBranchMispredict)] = mp_candidate;

    // --- Functional units: a multiply/divide issued shortly before. ---
    bool imul_candidate = false, fdiv_candidate = false;
    int scanned = 0;
    for (int j = static_cast<int>(k) - 1;
         j >= block_first && scanned < kLookbackInstructions; --j, ++scanned) {
      if (PipelineModel::UsesImul(analysis.instructions[j].inst)) imul_candidate = true;
      if (PipelineModel::UsesFdiv(analysis.instructions[j].inst)) fdiv_candidate = true;
    }
    if (PipelineModel::UsesImul(ia.inst)) imul_candidate = true;
    if (PipelineModel::UsesFdiv(ia.inst)) fdiv_candidate = true;
    ia.culprits[static_cast<int>(CulpritKind::kImulBusy)] = imul_candidate;
    ia.culprits[static_cast<int>(CulpritKind::kFdivBusy)] = fdiv_candidate;

    bool any = false;
    for (bool c : ia.culprits) any |= c;
    ia.unexplained = !any;
  }

  // ---- Aggregates ----
  double total_cycles = 0;
  double total_freq = 0;
  double best_cycles = 0;
  for (const InstructionAnalysis& ia : analysis.instructions) {
    total_cycles += static_cast<double>(ia.samples) * period;
    total_freq += ia.frequency;
    best_cycles += ia.frequency * static_cast<double>(ia.m);
  }
  analysis.total_frequency = total_freq;
  analysis.best_case_cpi = total_freq > 0 ? best_cycles / total_freq : 0;
  analysis.actual_cpi = total_freq > 0 ? total_cycles / total_freq : 0;

  StallSummary& summary = analysis.summary;
  summary.total_cycles = total_cycles;
  if (total_cycles > 0) {
    double execution_cycles = 0;
    for (const InstructionAnalysis& ia : analysis.instructions) {
      double stall_cycles = ia.dynamic_stall * ia.frequency;
      double gain = ia.frequency > 0
                        ? std::max(0.0, static_cast<double>(ia.m) - ia.cpi) * ia.frequency
                        : 0;
      summary.unexplained_gain_pct -= 100.0 * gain / total_cycles;
      if (ia.dynamic_stall >= 0.01) {
        int candidates = 0;
        for (bool c : ia.culprits) candidates += c;
        summary.total_dynamic_pct += 100.0 * stall_cycles / total_cycles;
        if (candidates == 0 && stall_cycles > 0 && ia.frequency > 0) {
          summary.unexplained_stall_pct += 100.0 * stall_cycles / total_cycles;
        }
        for (int c = 0; c < kNumCulpritKinds; ++c) {
          if (!ia.culprits[c]) continue;
          summary.dynamic_max_pct[c] += 100.0 * stall_cycles / total_cycles;
          if (candidates == 1) {
            summary.dynamic_min_pct[c] += 100.0 * stall_cycles / total_cycles;
          } else if (c == static_cast<int>(CulpritKind::kIcache)) {
            summary.dynamic_min_pct[c] += 100.0 * ia.icache_floor_cycles / total_cycles;
          }
        }
      }
      double static_cycles =
          static_cast<double>(ia.static_stall_cycles) * ia.frequency;
      switch (ia.static_stall) {
        case StaticStallKind::kSlotting:
          summary.static_pct_slotting += 100.0 * static_cycles / total_cycles;
          break;
        case StaticStallKind::kRaDependency:
          summary.static_pct_ra += 100.0 * static_cycles / total_cycles;
          break;
        case StaticStallKind::kRbDependency:
          summary.static_pct_rb += 100.0 * static_cycles / total_cycles;
          break;
        case StaticStallKind::kRcDependency:
          summary.static_pct_rc += 100.0 * static_cycles / total_cycles;
          break;
        case StaticStallKind::kFuDependency:
          summary.static_pct_fu += 100.0 * static_cycles / total_cycles;
          break;
        case StaticStallKind::kNone:
          break;
      }
      execution_cycles +=
          ia.frequency * static_cast<double>(ia.m - std::min(ia.m, ia.static_stall_cycles));
    }
    summary.execution_pct = 100.0 * execution_cycles / total_cycles;
  }
  return analysis;
}

}  // namespace dcpi
