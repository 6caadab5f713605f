#include "src/analysis/cfg.h"

#include <algorithm>
#include <map>
#include <optional>
#include <set>

namespace dcpi {

namespace {

// Attempts to resolve an indirect jump target: looks backwards for the
// ldah/lda pair (the `lia` expansion) that materializes the jump register.
std::optional<uint64_t> ResolveIndirectTarget(const ExecutableImage& image,
                                              uint64_t jump_pc, uint8_t target_reg,
                                              uint64_t proc_start) {
  int64_t value = 0;
  bool have_high = false;
  // Scan back a small window; stop at anything that clobbers the register
  // in a way we cannot model.
  for (uint64_t pc = jump_pc; pc > proc_start && pc > jump_pc - 10 * kInstrBytes;) {
    pc -= kInstrBytes;
    auto word = image.InstructionAt(pc);
    if (!word) break;
    auto inst = Decode(*word);
    if (!inst) break;
    auto dest = inst->DestReg();
    if (!dest.has_value() || dest->bank != RegBank::kInt || dest->index != target_reg) {
      continue;
    }
    if (inst->op == Opcode::kLda && inst->rb == target_reg) {
      value += inst->disp;
      continue;  // keep looking for the ldah half
    }
    if (inst->op == Opcode::kLdah && inst->rb == kZeroReg) {
      value += static_cast<int64_t>(inst->disp) << 16;
      have_high = true;
      break;
    }
    return std::nullopt;  // clobbered by something else
  }
  if (!have_high || value <= 0) return std::nullopt;
  return static_cast<uint64_t>(value);
}

}  // namespace

Result<Cfg> Cfg::Build(const ExecutableImage& image, const ProcedureSymbol& proc) {
  if (proc.end <= proc.start) return InvalidArgument("empty procedure " + proc.name);
  Cfg cfg;
  cfg.proc_start_ = proc.start;
  cfg.proc_end_ = proc.end;

  auto in_proc = [&](uint64_t pc) { return pc >= proc.start && pc < proc.end; };

  // Pass 1: leaders.
  std::set<uint64_t> leaders;
  leaders.insert(proc.start);
  for (uint64_t pc = proc.start; pc < proc.end; pc += kInstrBytes) {
    auto word = image.InstructionAt(pc);
    if (!word) return Internal("unreadable text in " + proc.name);
    auto inst = Decode(*word);
    if (!inst) return Internal("undecodable instruction in " + proc.name);
    InstrClass klass = inst->klass();
    bool is_call = inst->op == Opcode::kBsr || inst->op == Opcode::kJsr;
    bool transfers = inst->IsControlFlow() && !is_call;
    bool is_halt = inst->op == Opcode::kCallPal;
    if (transfers || is_halt) {
      if (pc + kInstrBytes < proc.end) leaders.insert(pc + kInstrBytes);
      if (klass == InstrClass::kCondBranch || klass == InstrClass::kUncondBranch) {
        uint64_t target = inst->BranchTarget(pc);
        if (in_proc(target)) leaders.insert(target);
      } else if (inst->op == Opcode::kJmp) {
        auto target = ResolveIndirectTarget(image, pc, inst->rb, proc.start);
        if (target.has_value() && in_proc(*target) &&
            (*target - proc.start) % kInstrBytes == 0) {
          leaders.insert(*target);
        }
      }
    }
  }

  // Pass 2: blocks.
  std::map<uint64_t, int> block_of_leader;
  for (uint64_t leader : leaders) {
    BasicBlock block;
    block.id = static_cast<int>(cfg.blocks_.size());
    block.start_pc = leader;
    cfg.blocks_.push_back(block);
    block_of_leader[leader] = block.id;
  }
  for (size_t b = 0; b < cfg.blocks_.size(); ++b) {
    cfg.blocks_[b].end_pc =
        b + 1 < cfg.blocks_.size() ? cfg.blocks_[b + 1].start_pc : proc.end;
  }

  // Pass 3: edges.
  auto add_edge = [&](int from, int to, bool fallthrough) {
    CfgEdge edge;
    edge.id = static_cast<int>(cfg.edges_.size());
    edge.from = from;
    edge.to = to;
    edge.fallthrough = fallthrough;
    cfg.edges_.push_back(edge);
    if (from >= 0) cfg.blocks_[from].out_edges.push_back(edge.id);
    if (to >= 0) cfg.blocks_[to].in_edges.push_back(edge.id);
  };

  add_edge(kCfgEntry, 0, false);
  for (BasicBlock& block : cfg.blocks_) {
    uint64_t last_pc = block.end_pc - kInstrBytes;
    auto inst = Decode(*image.InstructionAt(last_pc));
    InstrClass klass = inst->klass();
    bool is_call = inst->op == Opcode::kBsr || inst->op == Opcode::kJsr;
    auto target_block = [&](uint64_t target) -> int {
      auto it = block_of_leader.find(target);
      return it == block_of_leader.end() ? kCfgExit : it->second;
    };

    if (is_call || !inst->IsControlFlow()) {
      if (inst->op == Opcode::kCallPal) {
        add_edge(block.id, kCfgExit, false);  // halt / yield terminates flow
      } else if (block.end_pc < proc.end) {
        add_edge(block.id, block.id + 1, true);
      } else {
        add_edge(block.id, kCfgExit, true);  // falls off the procedure end
      }
      continue;
    }
    switch (klass) {
      case InstrClass::kCondBranch: {
        uint64_t target = inst->BranchTarget(last_pc);
        add_edge(block.id, in_proc(target) ? target_block(target) : kCfgExit, false);
        if (block.end_pc < proc.end) {
          add_edge(block.id, block.id + 1, true);
        } else {
          add_edge(block.id, kCfgExit, true);
        }
        break;
      }
      case InstrClass::kUncondBranch: {
        uint64_t target = inst->BranchTarget(last_pc);
        add_edge(block.id, in_proc(target) ? target_block(target) : kCfgExit, false);
        break;
      }
      case InstrClass::kJump: {
        if (inst->op == Opcode::kRet) {
          add_edge(block.id, kCfgExit, false);
          break;
        }
        // jmp: try the lia-pair analysis.
        auto target = ResolveIndirectTarget(image, last_pc, inst->rb, proc.start);
        if (target.has_value() && in_proc(*target) && block_of_leader.count(*target)) {
          add_edge(block.id, block_of_leader[*target], false);
        } else if (target.has_value() && !in_proc(*target)) {
          add_edge(block.id, kCfgExit, false);  // tail call out of the procedure
        } else {
          cfg.missing_edges_ = true;
          add_edge(block.id, kCfgExit, false);
        }
        break;
      }
      default:
        add_edge(block.id, kCfgExit, false);
        break;
    }
  }

  // Safety net: every block must have a successor (the infinite-loop
  // extension guarantees the equivalence graph stays connected).
  for (BasicBlock& block : cfg.blocks_) {
    if (block.out_edges.empty()) add_edge(block.id, kCfgExit, false);
  }
  return cfg;
}

Cfg Cfg::FromParts(std::vector<BasicBlock> blocks, std::vector<CfgEdge> edges,
                   bool missing_edges, uint64_t proc_start, uint64_t proc_end) {
  Cfg cfg;
  cfg.blocks_ = std::move(blocks);
  cfg.edges_ = std::move(edges);
  cfg.missing_edges_ = missing_edges;
  cfg.proc_start_ = proc_start;
  cfg.proc_end_ = proc_end;
  return cfg;
}

int Cfg::BlockIndexFor(uint64_t pc) const {
  if (pc < proc_start_ || pc >= proc_end_) return -1;
  // Blocks are sorted by start_pc.
  int lo = 0, hi = static_cast<int>(blocks_.size()) - 1;
  while (lo < hi) {
    int mid = (lo + hi + 1) / 2;
    if (blocks_[mid].start_pc <= pc) {
      lo = mid;
    } else {
      hi = mid - 1;
    }
  }
  return lo;
}

std::vector<int> Cfg::EntryEdges() const {
  std::vector<int> ids;
  for (const CfgEdge& e : edges_) {
    if (e.from == kCfgEntry) ids.push_back(e.id);
  }
  return ids;
}

}  // namespace dcpi
