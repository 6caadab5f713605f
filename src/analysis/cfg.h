// Control-flow graphs for procedures (Section 6.1.1).
//
// Basic-block boundaries come from control-flow instructions and branch
// targets. Calls (bsr/jsr) do not end blocks: the analysis ignores
// interprocedural edges, like the paper's. Indirect jumps are resolved by
// analyzing the preceding instructions (an ldah/lda pair materializing a
// constant target); unresolved jumps mark the CFG as missing edges, which
// downgrades frequency equivalence to per-block/per-edge classes.

#ifndef SRC_ANALYSIS_CFG_H_
#define SRC_ANALYSIS_CFG_H_

#include <cstdint>
#include <vector>

#include "src/isa/image.h"
#include "src/support/status.h"

namespace dcpi {

struct CfgEdge {
  int id = 0;
  int from = 0;  // block index; kCfgEntry / kCfgExit for virtual nodes
  int to = 0;
  bool fallthrough = false;  // not-taken successor of a conditional branch
};

inline constexpr int kCfgEntry = -1;
inline constexpr int kCfgExit = -2;

struct BasicBlock {
  int id = 0;
  uint64_t start_pc = 0;
  uint64_t end_pc = 0;  // one past the last instruction
  std::vector<int> in_edges;
  std::vector<int> out_edges;

  size_t num_instructions() const { return (end_pc - start_pc) / kInstrBytes; }
};

class Cfg {
 public:
  // Builds the CFG of `proc` within `image`.
  static Result<Cfg> Build(const ExecutableImage& image, const ProcedureSymbol& proc);

  // Reassembles a CFG from previously built parts (the analysis-cache
  // deserializer). The parts must come from Build — no invariants are
  // re-derived here.
  static Cfg FromParts(std::vector<BasicBlock> blocks, std::vector<CfgEdge> edges,
                       bool missing_edges, uint64_t proc_start, uint64_t proc_end);

  const std::vector<BasicBlock>& blocks() const { return blocks_; }
  const std::vector<CfgEdge>& edges() const { return edges_; }
  bool missing_edges() const { return missing_edges_; }
  uint64_t proc_start() const { return proc_start_; }
  uint64_t proc_end() const { return proc_end_; }

  // Block containing `pc` (-1 if outside the procedure).
  int BlockIndexFor(uint64_t pc) const;

  // Entry edge ids (virtual entry->first block).
  std::vector<int> EntryEdges() const;

 private:
  std::vector<BasicBlock> blocks_;
  std::vector<CfgEdge> edges_;
  bool missing_edges_ = false;
  uint64_t proc_start_ = 0;
  uint64_t proc_end_ = 0;
};

}  // namespace dcpi

#endif  // SRC_ANALYSIS_CFG_H_
