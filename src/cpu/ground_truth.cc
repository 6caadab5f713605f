#include "src/cpu/ground_truth.h"

#include <algorithm>

namespace dcpi {

const char* StallCauseName(StallCause cause) {
  switch (cause) {
    case StallCause::kNone:
      return "none";
    case StallCause::kIcacheMiss:
      return "icache";
    case StallCause::kItbMiss:
      return "itb";
    case StallCause::kDcacheMiss:
      return "dcache";
    case StallCause::kDtbMiss:
      return "dtb";
    case StallCause::kWriteBuffer:
      return "write-buffer";
    case StallCause::kBranchMispredict:
      return "branch-mispredict";
    case StallCause::kImulBusy:
      return "imul-busy";
    case StallCause::kFdivBusy:
      return "fdiv-busy";
    case StallCause::kDependency:
      return "dependency";
    case StallCause::kSlotting:
      return "slotting";
    case StallCause::kSync:
      return "sync";
    case StallCause::kFetchWidth:
      return "fetch-width";
    case StallCause::kStallCauseCount:
      break;
  }
  return "unknown";
}

void GroundTruth::AddImage(std::shared_ptr<const ExecutableImage> image) {
  ImageTruth truth;
  if (record_) truth.instructions.resize(image->num_instructions());
  truth.image = std::move(image);
  images_.push_back(std::move(truth));
  std::sort(images_.begin(), images_.end(), [](const ImageTruth& a, const ImageTruth& b) {
    return a.image->text_base() < b.image->text_base();
  });
  ClearMemos();
}

void GroundTruth::ClearMemos() {
  last_hit_ = nullptr;
  last_base_ = 0;
  last_end_ = 0;
  for (EdgeMemo& memo : edge_memo_) memo = EdgeMemo();
}

ImageTruth* GroundTruth::ImageForPc(uint64_t pc) {
  if (pc >= last_base_ && pc < last_end_) return last_hit_;
  auto it = std::upper_bound(images_.begin(), images_.end(), pc,
                             [](uint64_t value, const ImageTruth& t) {
                               return value < t.image->text_base();
                             });
  if (it == images_.begin()) return nullptr;
  --it;
  if (!it->image->ContainsPc(pc)) return nullptr;
  last_hit_ = &*it;
  last_base_ = it->image->text_base();
  last_end_ = it->image->text_end();
  return last_hit_;
}

void GroundTruth::AddEdgeSlow(uint64_t from_pc, uint64_t to_pc, EdgeMemo* memo) {
  ImageTruth* truth = ImageForPc(from_pc);
  if (truth == nullptr || !truth->image->ContainsPc(to_pc)) return;
  uint64_t base = truth->image->text_base();
  uint64_t& count = truth->edges[{from_pc - base, to_pc - base}];
  ++count;
  *memo = {from_pc, to_pc, &count};
}

void GroundTruth::DrainInto(GroundTruth* dst) {
  for (ImageTruth& src : images_) {
    ImageTruth* out = nullptr;
    for (ImageTruth& candidate : dst->images_) {
      if (candidate.image == src.image) {
        out = &candidate;
        break;
      }
    }
    if (out == nullptr) continue;  // image unknown to dst; nothing to fold
    for (size_t i = 0; i < src.instructions.size(); ++i) {
      InstructionTruth& from = src.instructions[i];
      InstructionTruth& to = out->instructions[i];
      to.exec_count += from.exec_count;
      to.head_cycles += from.head_cycles;
      for (int c = 0; c < kNumStallCauses; ++c) to.stall_cycles[c] += from.stall_cycles[c];
      to.imiss_events += from.imiss_events;
      to.dmiss_events += from.dmiss_events;
      to.mispredict_events += from.mispredict_events;
      to.dtbmiss_events += from.dtbmiss_events;
      from = InstructionTruth();
    }
    for (const auto& [edge, count] : src.edges) out->edges[edge] += count;
    src.edges.clear();
  }
  ClearMemos();
}

const ImageTruth* GroundTruth::FindImage(const ExecutableImage* image) const {
  for (const auto& t : images_) {
    if (t.image.get() == image) return &t;
  }
  return nullptr;
}

}  // namespace dcpi
