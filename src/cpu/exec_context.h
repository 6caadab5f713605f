// Execution context: what the CPU needs from the OS layer to run a process.
//
// The kernel (src/kernel) implements this for real processes; tests can
// implement it directly with a flat memory.

#ifndef SRC_CPU_EXEC_CONTEXT_H_
#define SRC_CPU_EXEC_CONTEXT_H_

#include <cstdint>
#include <cstring>
#include <optional>

#include "src/isa/instruction.h"

namespace dcpi {

struct RegFile {
  int64_t r[kNumIntRegs] = {};
  double f[kNumFpRegs] = {};
  uint64_t pc = 0;

  int64_t ReadInt(uint8_t index) const { return index == kZeroReg ? 0 : r[index]; }
  void WriteInt(uint8_t index, int64_t value) {
    if (index != kZeroReg) r[index] = value;
  }
  double ReadFp(uint8_t index) const { return index == kZeroReg ? 0.0 : f[index]; }
  void WriteFp(uint8_t index, double value) {
    if (index != kZeroReg) f[index] = value;
  }
};

// Register id used by the issue logic: bank * 32 + index, so one 64-entry
// scoreboard covers both banks.
inline constexpr uint8_t kNoReg = 0xff;
inline uint8_t RegId(RegRef reg) {
  return static_cast<uint8_t>(static_cast<int>(reg.bank) * kNumIntRegs + reg.index);
}

// A predecoded instruction plus its register operands, resolved once when
// the text is predecoded instead of at every issue. The operands are kept
// here, not in DecodedInst, because the analysis copies DecodedInst for
// every instruction it schedules and needs it small.
struct PredecodedInst {
  DecodedInst inst;
  uint8_t srcs[3] = {kNoReg, kNoReg, kNoReg};  // SourceRegs(), as RegIds
  uint8_t nsrcs = 0;
  // DestReg() as a RegId; kNoReg when there is none or it is r31/f31,
  // whose writes are discarded.
  uint8_t dest = kNoReg;

  explicit PredecodedInst(const DecodedInst& decoded) : inst(decoded) {
    RegRef regs[3];
    nsrcs = static_cast<uint8_t>(decoded.SourceRegs(regs));
    for (int i = 0; i < nsrcs; ++i) srcs[i] = RegId(regs[i]);
    std::optional<RegRef> d = decoded.DestReg();
    if (d.has_value() && !d->IsZero()) dest = RegId(*d);
  }
};

// A contiguous run of predecoded text: insts[i] is the instruction at
// base + i * kInstrBytes. Empty (base == end) when there is no text.
struct TextWindow {
  uint64_t base = 0;
  uint64_t end = 0;
  const PredecodedInst* insts = nullptr;

  bool Contains(uint64_t pc) const { return pc >= base && pc < end; }
  const PredecodedInst& At(uint64_t pc) const { return insts[(pc - base) / kInstrBytes]; }
};

class ExecContext {
 public:
  virtual ~ExecContext() = default;

  virtual uint32_t pid() const = 0;
  virtual RegFile& regs() = 0;

  // Data access (size in {4, 8}); returns false on unmapped addresses.
  virtual bool LoadData(uint64_t vaddr, unsigned size, uint64_t* out) = 0;
  virtual bool StoreData(uint64_t vaddr, unsigned size, uint64_t value) = 0;

  // Physical address for cache indexing.
  virtual uint64_t Translate(uint64_t vaddr) = 0;

  // The predecoded text window containing `pc` (for a process, the whole
  // text section of the image mapping it); empty if pc is outside mapped
  // text. The window's instructions stay valid while the context lives;
  // within one Cpu::Run the CPU asks again only when the PC leaves it.
  virtual TextWindow FetchText(uint64_t pc) = 0;
};

}  // namespace dcpi

#endif  // SRC_CPU_EXEC_CONTEXT_H_
