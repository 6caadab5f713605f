// Ground truth collected directly by the simulator: per-instruction
// execution counts, head-of-issue-queue cycles, per-cause stall cycles, and
// per-edge execution counts.
//
// This plays the role the paper's dcpix (pixie-like instrumentation) plays
// in Section 6.2: an exact reference against which the sample-based
// frequency estimates and culprit analysis are validated (Figures 8-10).
// The analysis tools never read it, and the simulation never reads it back.
//
// Like the paper's separate instrumented runs, recording is on request: a
// GroundTruth built with `record` false is only an image registry. It
// lists every registered image in text-base order, but sizes no counters,
// so its `instructions` and `edges` stay empty and it must not be attached
// to a Cpu. The kernel keeps one either way (KernelConfig::
// record_ground_truth).

#ifndef SRC_CPU_GROUND_TRUTH_H_
#define SRC_CPU_GROUND_TRUTH_H_

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "src/isa/image.h"

namespace dcpi {

enum class StallCause : uint8_t {
  kNone = 0,
  kIcacheMiss,
  kItbMiss,
  kDcacheMiss,   // dependency on an outstanding load miss
  kDtbMiss,
  kWriteBuffer,
  kBranchMispredict,
  kImulBusy,
  kFdivBusy,
  kDependency,   // operand not ready (non-miss latency)
  kSlotting,
  kSync,         // memory-barrier drain
  kFetchWidth,   // front-end bandwidth
  kStallCauseCount,
};

inline constexpr int kNumStallCauses = static_cast<int>(StallCause::kStallCauseCount);

const char* StallCauseName(StallCause cause);

struct InstructionTruth {
  uint64_t exec_count = 0;
  uint64_t head_cycles = 0;  // total cycles at the head of the issue queue
  uint64_t stall_cycles[kNumStallCauses] = {};
  uint64_t imiss_events = 0;
  uint64_t dmiss_events = 0;
  uint64_t mispredict_events = 0;
  uint64_t dtbmiss_events = 0;
};

// Per-image ground truth, dense per instruction.
struct ImageTruth {
  std::shared_ptr<const ExecutableImage> image;
  std::vector<InstructionTruth> instructions;               // by instruction index
  std::map<std::pair<uint64_t, uint64_t>, uint64_t> edges;  // (from_off, to_off) -> count
};

class GroundTruth {
 public:
  explicit GroundTruth(bool record = true) : record_(record) {}
  // Not copyable: the lookup memos point into this recorder's own images.
  GroundTruth(const GroundTruth&) = delete;
  GroundTruth& operator=(const GroundTruth&) = delete;

  // Registers an image; instruction counters are indexed by PC range and
  // sized only when this recorder records.
  void AddImage(std::shared_ptr<const ExecutableImage> image);

  // Moves every counter in this recorder into `dst`, zeroing them here.
  // `dst` must have been given the same AddImage sequence. The kernel uses
  // this to fold per-CPU recorder shards (one per host thread, so recording
  // needs no synchronization) into the merged machine-wide view.
  void DrainInto(GroundTruth* dst);

  // Fast lookup of the truth record for an absolute PC (images are
  // prelinked at unique addresses). Returns nullptr for unknown PCs.
  InstructionTruth* ForPc(uint64_t pc) {
    if (pc >= last_base_ && pc < last_end_) {
      return &last_hit_->instructions[(pc - last_base_) / kInstrBytes];
    }
    ImageTruth* truth = ImageForPc(pc);
    if (truth == nullptr) return nullptr;
    return &truth->instructions[(pc - truth->image->text_base()) / kInstrBytes];
  }

  // Counts one execution of the taken edge from_pc -> to_pc; ignored
  // unless both lie in the same image.
  void AddEdge(uint64_t from_pc, uint64_t to_pc) {
    EdgeMemo& memo = edge_memo_[EdgeMemoSlot(from_pc, to_pc)];
    if (memo.count != nullptr && memo.from_pc == from_pc && memo.to_pc == to_pc) {
      ++*memo.count;
      return;
    }
    AddEdgeSlow(from_pc, to_pc, &memo);
  }

  const ImageTruth* FindImage(const ExecutableImage* image) const;
  const std::vector<ImageTruth>& images() const { return images_; }

 private:
  // A recently counted edge and its counter in ImageTruth::edges. std::map
  // nodes never move, so the pointer stays valid until the map is cleared
  // (DrainInto) or the images vector changes (AddImage); both clear the
  // memo.
  struct EdgeMemo {
    uint64_t from_pc = 0;
    uint64_t to_pc = 0;
    uint64_t* count = nullptr;
  };
  static constexpr size_t kEdgeMemoEntries = 256;

  static size_t EdgeMemoSlot(uint64_t from_pc, uint64_t to_pc) {
    return ((from_pc / kInstrBytes) ^ (to_pc / kInstrBytes * 7)) & (kEdgeMemoEntries - 1);
  }

  // Finds the image containing `pc` and makes it the cached last hit.
  ImageTruth* ImageForPc(uint64_t pc);
  void AddEdgeSlow(uint64_t from_pc, uint64_t to_pc, EdgeMemo* memo);
  void ClearMemos();

  bool record_;
  std::vector<ImageTruth> images_;  // sorted by text_base
  // The last image ImageForPc found, with its [text_base, text_end).
  ImageTruth* last_hit_ = nullptr;
  uint64_t last_base_ = 0;
  uint64_t last_end_ = 0;
  EdgeMemo edge_memo_[kEdgeMemoEntries];
};

}  // namespace dcpi

#endif  // SRC_CPU_GROUND_TRUTH_H_
