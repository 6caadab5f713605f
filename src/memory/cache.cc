#include "src/memory/cache.h"

#include <bit>
#include <cstdio>
#include <cstdlib>

namespace dcpi {

namespace {

uint64_t CheckedNumSets(const CacheConfig& config) {
  uint64_t way_bytes = config.line_bytes * config.associativity;
  uint64_t sets = way_bytes == 0 ? 0 : config.size_bytes / way_bytes;
  if (!std::has_single_bit(config.line_bytes) || config.associativity == 0 ||
      config.size_bytes % way_bytes != 0 || !std::has_single_bit(sets)) {
    std::fprintf(stderr,
                 "invalid cache geometry: size %llu, line %llu, associativity %u "
                 "(line size and set count must be powers of two)\n",
                 static_cast<unsigned long long>(config.size_bytes),
                 static_cast<unsigned long long>(config.line_bytes), config.associativity);
    std::abort();
  }
  return sets;
}

}  // namespace

Cache::Cache(const CacheConfig& config)
    : config_(config),
      num_sets_(CheckedNumSets(config)),
      line_shift_(static_cast<unsigned>(std::countr_zero(config.line_bytes))),
      set_mask_(num_sets_ - 1),
      tag_shift_(line_shift_ + static_cast<unsigned>(std::countr_zero(num_sets_))) {
  ways_.resize(num_sets_ * config.associativity);
}

void Cache::Fill(Way* base, uint64_t tag) {
  ++stats_.misses;
  Way* victim = &base[0];
  for (uint32_t w = 0; w < config_.associativity; ++w) {
    if (!base[w].valid) {
      victim = &base[w];
      break;
    }
    if (base[w].last_use < victim->last_use) victim = &base[w];
  }
  victim->valid = true;
  victim->tag = tag;
  victim->last_use = use_clock_;
}

bool Cache::Probe(uint64_t paddr) const {
  uint64_t set = SetIndex(paddr);
  uint64_t tag = Tag(paddr);
  const Way* base = &ways_[set * config_.associativity];
  for (uint32_t w = 0; w < config_.associativity; ++w) {
    if (base[w].valid && base[w].tag == tag) return true;
  }
  return false;
}

void Cache::InvalidateLine(uint64_t paddr) {
  uint64_t set = SetIndex(paddr);
  uint64_t tag = Tag(paddr);
  Way* base = &ways_[set * config_.associativity];
  for (uint32_t w = 0; w < config_.associativity; ++w) {
    if (base[w].valid && base[w].tag == tag) base[w].valid = false;
  }
}

void Cache::Clear() {
  for (Way& w : ways_) w.valid = false;
  use_clock_ = 0;
}

}  // namespace dcpi
