#include "src/optimize/layout.h"

#include <algorithm>
#include <map>
#include <vector>

#include "src/memory/memory_system.h"

namespace dcpi {

namespace {

// Procedures carrying more than this share of the samples start on an
// I-cache line.
constexpr double kHotAlignmentThreshold = 0.01;

struct Chunk {
  std::string name;         // procedure name, or "" for anonymous text
  uint64_t old_start;       // absolute
  uint64_t old_end;
  uint64_t samples = 0;
  bool is_procedure = false;
};

// Returns true if instructions [index, index+1] form an ldah/lda pair
// materializing an absolute constant (the assembler's li/lia expansion).
bool IsAddressPair(const ExecutableImage& image, size_t index, int64_t* value,
                   uint8_t* reg) {
  if (index + 1 >= image.num_instructions()) return false;
  auto hi = Decode(image.text()[index]);
  auto lo = Decode(image.text()[index + 1]);
  if (!hi || !lo) return false;
  if (hi->op != Opcode::kLdah || hi->rb != kZeroReg) return false;
  if (lo->op != Opcode::kLda || lo->ra != hi->ra || lo->rb != hi->ra) return false;
  *value = (static_cast<int64_t>(hi->disp) << 16) + lo->disp;
  *reg = hi->ra;
  return true;
}

}  // namespace

Result<std::shared_ptr<ExecutableImage>> ReorderProceduresByHotness(
    const ExecutableImage& image, const ImageProfile& cycles) {
  const uint64_t base = image.text_base();
  const uint64_t end = image.text_end();

  // ---- Partition the text into procedure and anonymous chunks ----
  std::vector<Chunk> chunks;
  uint64_t cursor = base;
  for (const ProcedureSymbol& proc : image.procedures()) {
    if (proc.start < cursor) {
      return InvalidArgument("overlapping procedures in " + image.name());
    }
    if (proc.start > cursor) {
      chunks.push_back({"", cursor, proc.start, 0, false});
    }
    chunks.push_back({proc.name, proc.start, proc.end, 0, true});
    cursor = proc.end;
  }
  if (cursor < end) chunks.push_back({"", cursor, end, 0, false});

  uint64_t total_samples = 0;
  for (Chunk& chunk : chunks) {
    for (uint64_t pc = chunk.old_start; pc < chunk.old_end; pc += kInstrBytes) {
      chunk.samples += cycles.SamplesAt(image.PcToOffset(pc));
    }
    total_samples += chunk.samples;
  }

  // ---- Order: procedures by samples (desc), then anonymous chunks ----
  std::vector<const Chunk*> order;
  for (const Chunk& chunk : chunks) {
    if (chunk.is_procedure) order.push_back(&chunk);
  }
  std::stable_sort(order.begin(), order.end(),
                   [](const Chunk* a, const Chunk* b) { return a->samples > b->samples; });
  for (const Chunk& chunk : chunks) {
    if (!chunk.is_procedure) order.push_back(&chunk);
  }

  // ---- Assign new addresses (with hot-entry alignment) ----
  DecodedInst nop;
  nop.op = Opcode::kBis;
  nop.ra = nop.rb = nop.rc = kZeroReg;
  const uint32_t nop_word = Encode(nop);

  std::map<uint64_t, uint64_t> relocation;  // old pc -> new pc
  struct Placement {
    const Chunk* chunk;
    uint64_t new_start;
  };
  std::vector<Placement> placements;
  uint64_t new_cursor = base;
  for (const Chunk* chunk : order) {
    bool hot = total_samples > 0 &&
               static_cast<double>(chunk->samples) >
                   kHotAlignmentThreshold * static_cast<double>(total_samples);
    if (hot) {
      const uint64_t line = kIcacheGeometry.line_bytes;
      new_cursor = (new_cursor + line - 1) / line * line;
    }
    placements.push_back({chunk, new_cursor});
    for (uint64_t pc = chunk->old_start; pc < chunk->old_end; pc += kInstrBytes) {
      relocation[pc] = new_cursor + (pc - chunk->old_start);
    }
    new_cursor += chunk->old_end - chunk->old_start;
  }
  const uint64_t new_text_words = (new_cursor - base) / kInstrBytes;

  // ---- Emit the reordered text with fixups ----
  auto output = std::make_shared<ExecutableImage>(image.name() + ".hot", base);
  std::vector<uint32_t> words(new_text_words, nop_word);
  std::vector<int> lines(new_text_words, 0);

  for (const Placement& placement : placements) {
    const Chunk& chunk = *placement.chunk;
    for (uint64_t pc = chunk.old_start; pc < chunk.old_end; pc += kInstrBytes) {
      size_t old_index = (pc - base) / kInstrBytes;
      size_t new_index = (relocation[pc] - base) / kInstrBytes;
      words[new_index] = image.text()[old_index];
      lines[new_index] = image.SourceLineOf(old_index);
    }
  }

  // Fixups operate on the *old* instruction stream, writing to new slots.
  for (uint64_t pc = base; pc < end; pc += kInstrBytes) {
    size_t old_index = (pc - base) / kInstrBytes;
    size_t new_index = (relocation[pc] - base) / kInstrBytes;
    auto inst = Decode(image.text()[old_index]);
    if (!inst) continue;
    const OpcodeInfo& oi = inst->info();
    if (oi.format == InstrFormat::kBranch) {
      uint64_t old_target = inst->BranchTarget(pc);
      auto it = relocation.find(old_target);
      if (it == relocation.end()) {
        return Internal("branch target outside relocated text in " + image.name());
      }
      int64_t delta = static_cast<int64_t>(it->second) -
                      static_cast<int64_t>(relocation[pc] + kInstrBytes);
      int64_t disp_words = delta / static_cast<int64_t>(kInstrBytes);
      if (disp_words < INT16_MIN || disp_words > INT16_MAX) {
        return OutOfRange("relocated branch out of range in " + image.name());
      }
      DecodedInst patched = *inst;
      patched.disp = static_cast<int16_t>(disp_words);
      words[new_index] = Encode(patched);
    }
    int64_t value = 0;
    uint8_t reg = 0;
    if (IsAddressPair(image, old_index, &value, &reg) && value >= 0 &&
        static_cast<uint64_t>(value) >= base && static_cast<uint64_t>(value) < end &&
        (static_cast<uint64_t>(value) - base) % kInstrBytes == 0) {
      // An absolute pointer into this image's text: retarget it.
      auto it = relocation.find(static_cast<uint64_t>(value));
      if (it != relocation.end()) {
        int64_t new_value = static_cast<int64_t>(it->second);
        int16_t lo = static_cast<int16_t>(new_value & 0xffff);
        int64_t hi = (new_value - lo) >> 16;
        DecodedInst ldah = *Decode(image.text()[old_index]);
        DecodedInst lda = *Decode(image.text()[old_index + 1]);
        ldah.disp = static_cast<int16_t>(hi);
        lda.disp = lo;
        words[new_index] = Encode(ldah);
        // The lda may itself have been relocated with the same chunk.
        size_t lda_new = (relocation[pc + kInstrBytes] - base) / kInstrBytes;
        words[lda_new] = Encode(lda);
      }
    }
  }

  for (size_t i = 0; i < words.size(); ++i) output->AppendInstruction(words[i], lines[i]);

  // ---- Symbols and data ----
  for (const Placement& placement : placements) {
    if (!placement.chunk->is_procedure) continue;
    uint64_t size = placement.chunk->old_end - placement.chunk->old_start;
    output->AddProcedure(
        {placement.chunk->name, placement.new_start, placement.new_start + size});
  }
  // Data moves only if the text grew past the old data page boundary.
  if (output->data_base() != image.data_base() && image.data_size() > 0) {
    return OutOfRange("alignment padding pushed the data section; reduce alignment");
  }
  output->SetData(image.data_init(), image.data_size());
  for (const DataSymbol& sym : image.data_symbols()) output->AddDataSymbol(sym);
  return output;
}

}  // namespace dcpi
