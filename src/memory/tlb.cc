#include "src/memory/tlb.h"

namespace dcpi {

bool Tlb::ScanAndFill(uint64_t vpage) {
  for (size_t i = 0; i < slots_.size(); ++i) {
    if (slots_[i].vpage == vpage) {
      slots_[i].last_use = use_clock_;
      mru_ = i;
      ++stats_.hits;
      return true;
    }
  }
  ++stats_.misses;
  if (slots_.size() < entries_) {
    slots_.push_back({vpage, use_clock_});
    mru_ = slots_.size() - 1;
    return false;
  }
  Entry* victim = &slots_[0];
  for (Entry& e : slots_) {
    if (e.last_use < victim->last_use) victim = &e;
  }
  victim->vpage = vpage;
  victim->last_use = use_clock_;
  mru_ = static_cast<size_t>(victim - slots_.data());
  return false;
}

void Tlb::Clear() {
  slots_.clear();
  mru_ = 0;
  use_clock_ = 0;
}

}  // namespace dcpi
