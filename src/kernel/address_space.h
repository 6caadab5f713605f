// Process address spaces.
//
// An address space is a set of mapped images (text + data at their
// prelinked addresses), anonymous regions (stack/heap), sparse backing
// pages, and a per-process random page colouring used for physical cache
// indexing. Instruction fetch goes through a shared predecode cache so the
// simulator does not re-decode hot loops.

#ifndef SRC_KERNEL_ADDRESS_SPACE_H_
#define SRC_KERNEL_ADDRESS_SPACE_H_

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "src/cpu/exec_context.h"
#include "src/isa/image.h"
#include "src/memory/memory_system.h"
#include "src/support/status.h"

namespace dcpi {

// Predecoded text shared between all processes mapping an image. Each
// instruction carries its register operands, resolved once here rather
// than at every issue.
struct PredecodedImage {
  std::shared_ptr<const ExecutableImage> image;
  std::vector<PredecodedInst> text;

  explicit PredecodedImage(std::shared_ptr<const ExecutableImage> img);
};

// Global registry of predecoded images (one per kernel instance).
class ImageRegistry {
 public:
  // Registers (or returns the existing) predecode for an image.
  const PredecodedImage* Register(std::shared_ptr<const ExecutableImage> image);
  const PredecodedImage* Find(const ExecutableImage* image) const;

 private:
  std::vector<std::unique_ptr<PredecodedImage>> entries_;
};

class AddressSpace {
 public:
  explicit AddressSpace(uint64_t page_seed) : mapper_(page_seed) {}

  // Maps an image's text and data sections at their prelinked addresses.
  Status MapImage(const PredecodedImage* predecoded);

  // Maps an anonymous zero-filled region (stack, heap).
  Status MapAnonymous(uint64_t start, uint64_t size);

  bool Load(uint64_t vaddr, unsigned size, uint64_t* out);
  bool Store(uint64_t vaddr, unsigned size, uint64_t value);
  uint64_t Translate(uint64_t vaddr) { return mapper_.Translate(vaddr); }

  // The predecoded text section containing pc; empty outside mapped text.
  TextWindow TextAt(uint64_t pc) const;

  struct Mapping {
    const PredecodedImage* predecoded;
  };
  const std::vector<Mapping>& mappings() const { return mappings_; }

  // Frees the backing pages, the page colouring and both memos once the
  // process has exited, and unmaps everything, so a stray access afterwards
  // fails instead of allocating a fresh page.
  void Release();

  // Bytes of backing pages held (0 once released).
  uint64_t touched_bytes() const { return pages_.size() * kPageBytes; }

 private:
  bool InValidRange(uint64_t vaddr, unsigned size) const;
  // Backing page of vaddr, allocated zero-filled on first touch.
  uint8_t* PageFor(uint64_t vaddr);

  struct Range {
    uint64_t start;
    uint64_t end;
  };

  // Direct-mapped cache of recent PageFor results. A page's storage never
  // moves, and pages are freed only by Release, which clears the memo with
  // them, so a memoized pointer stays valid.
  struct PageMemo {
    uint64_t vpage = ~0ull;  // no page number: vaddr / kPageBytes < 2^51
    uint8_t* page = nullptr;
  };
  static constexpr size_t kPageMemoEntries = 16;

  PageMapper mapper_;
  std::vector<Mapping> mappings_;
  std::vector<Range> valid_ranges_;
  std::unordered_map<uint64_t, std::unique_ptr<uint8_t[]>> pages_;
  PageMemo page_memo_[kPageMemoEntries];
};

}  // namespace dcpi

#endif  // SRC_KERNEL_ADDRESS_SPACE_H_
