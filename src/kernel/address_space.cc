#include "src/kernel/address_space.h"

#include <algorithm>
#include <cstring>
#include <iterator>

namespace dcpi {

PredecodedImage::PredecodedImage(std::shared_ptr<const ExecutableImage> img)
    : image(std::move(img)) {
  text.reserve(image->num_instructions());
  for (uint32_t word : image->text()) {
    text.emplace_back(Decode(word).value_or(DecodedInst{}));
  }
}

const PredecodedImage* ImageRegistry::Register(std::shared_ptr<const ExecutableImage> image) {
  if (const PredecodedImage* existing = Find(image.get())) return existing;
  entries_.push_back(std::make_unique<PredecodedImage>(std::move(image)));
  return entries_.back().get();
}

const PredecodedImage* ImageRegistry::Find(const ExecutableImage* image) const {
  for (const auto& entry : entries_) {
    if (entry->image.get() == image) return entry.get();
  }
  return nullptr;
}

Status AddressSpace::MapImage(const PredecodedImage* predecoded) {
  const ExecutableImage& image = *predecoded->image;
  mappings_.push_back({predecoded});
  valid_ranges_.push_back({image.text_base(), image.text_end()});
  if (image.data_size() > 0) {
    valid_ranges_.push_back({image.data_base(), image.data_base() + image.data_size()});
    // Copy initialized data into backing pages, one page-sized piece at a
    // time.
    const std::vector<uint8_t>& init = image.data_init();
    for (size_t i = 0; i < init.size();) {
      uint64_t vaddr = image.data_base() + i;
      size_t piece = std::min<uint64_t>(init.size() - i, kPageBytes - vaddr % kPageBytes);
      std::memcpy(PageFor(vaddr) + vaddr % kPageBytes, init.data() + i, piece);
      i += piece;
    }
  }
  return Status::Ok();
}

Status AddressSpace::MapAnonymous(uint64_t start, uint64_t size) {
  if (size == 0) return InvalidArgument("empty anonymous mapping");
  valid_ranges_.push_back({start, start + size});
  return Status::Ok();
}

void AddressSpace::Release() {
  // Swapping with empty containers frees the hash tables' bucket arrays
  // and the vectors' storage too, which clear() would keep.
  mapper_.Release();
  std::unordered_map<uint64_t, std::unique_ptr<uint8_t[]>>().swap(pages_);
  std::fill(std::begin(page_memo_), std::end(page_memo_), PageMemo());
  std::vector<Range>().swap(valid_ranges_);
  std::vector<Mapping>().swap(mappings_);
}

bool AddressSpace::InValidRange(uint64_t vaddr, unsigned size) const {
  // Written so that an access running past 2^64 cannot wrap into range.
  for (const Range& r : valid_ranges_) {
    if (vaddr >= r.start && vaddr <= r.end && size <= r.end - vaddr) return true;
  }
  return false;
}

uint8_t* AddressSpace::PageFor(uint64_t vaddr) {
  uint64_t vpage = vaddr / kPageBytes;
  PageMemo& memo = page_memo_[vpage % kPageMemoEntries];
  if (memo.vpage == vpage) return memo.page;
  auto it = pages_.find(vpage);
  if (it == pages_.end()) {
    auto page = std::make_unique<uint8_t[]>(kPageBytes);
    std::memset(page.get(), 0, kPageBytes);
    it = pages_.emplace(vpage, std::move(page)).first;
  }
  memo = {vpage, it->second.get()};
  return memo.page;
}

// Load and Store look the page up once, and again only where the access
// crosses into the next page.
bool AddressSpace::Load(uint64_t vaddr, unsigned size, uint64_t* out) {
  if (!InValidRange(vaddr, size)) return false;
  uint64_t value = 0;
  uint8_t* page = nullptr;
  for (unsigned i = 0; i < size; ++i) {
    uint64_t a = vaddr + i;
    if (page == nullptr || a % kPageBytes == 0) page = PageFor(a);
    value |= static_cast<uint64_t>(page[a % kPageBytes]) << (8 * i);
  }
  *out = value;
  return true;
}

bool AddressSpace::Store(uint64_t vaddr, unsigned size, uint64_t value) {
  if (!InValidRange(vaddr, size)) return false;
  uint8_t* page = nullptr;
  for (unsigned i = 0; i < size; ++i) {
    uint64_t a = vaddr + i;
    if (page == nullptr || a % kPageBytes == 0) page = PageFor(a);
    page[a % kPageBytes] = static_cast<uint8_t>(value >> (8 * i));
  }
  return true;
}

TextWindow AddressSpace::TextAt(uint64_t pc) const {
  for (const Mapping& m : mappings_) {
    const ExecutableImage& image = *m.predecoded->image;
    if (image.ContainsPc(pc)) {
      return TextWindow{image.text_base(), image.text_end(), m.predecoded->text.data()};
    }
  }
  return TextWindow();
}

}  // namespace dcpi
