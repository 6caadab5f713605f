// Instruction encoding, decoding, and operand extraction.

#ifndef SRC_ISA_INSTRUCTION_H_
#define SRC_ISA_INSTRUCTION_H_

#include <cstdint>
#include <optional>
#include <string>

#include "src/isa/isa.h"

namespace dcpi {

// A decoded instruction. Fields not used by the instruction's format are 0.
struct DecodedInst {
  Opcode op = Opcode::kBis;
  uint8_t ra = kZeroReg;
  uint8_t rb = kZeroReg;
  uint8_t rc = kZeroReg;
  bool has_literal = false;  // operate format only
  uint8_t literal = 0;       // 8-bit unsigned literal replacing rb
  int16_t disp = 0;          // memory/branch displacement, PAL function

  const OpcodeInfo& info() const { return GetOpcodeInfo(op); }
  InstrClass klass() const { return info().klass; }

  bool IsLoad() const { return klass() == InstrClass::kLoad; }
  bool IsStore() const { return klass() == InstrClass::kStore; }
  bool IsControlFlow() const {
    InstrClass k = klass();
    return k == InstrClass::kCondBranch || k == InstrClass::kUncondBranch ||
           k == InstrClass::kJump;
  }

  // Up to 3 source registers (cmov and stores read multiple; cmov also
  // reads its destination). Returns the count, filling `out`.
  int SourceRegs(RegRef out[3]) const;

  // Destination register, if the instruction writes one (writes to r31/f31
  // are still reported; callers treat the zero register as a discard).
  std::optional<RegRef> DestReg() const;

  // Branch target for branch-format instructions, given this instruction's
  // byte address.
  uint64_t BranchTarget(uint64_t pc) const {
    return pc + kInstrBytes + static_cast<int64_t>(disp) * static_cast<int64_t>(kInstrBytes);
  }
};

// The analysis keeps a copy per instruction it schedules; per-instruction
// facts the simulator wants (register operands) live in its predecoded
// text instead, so this stays small.
static_assert(sizeof(DecodedInst) == 8, "DecodedInst grew");

// Encodes a decoded instruction to its 32-bit form.
uint32_t Encode(const DecodedInst& inst);

// Decodes a 32-bit word. Returns nullopt for an invalid opcode field.
std::optional<DecodedInst> Decode(uint32_t word);

// Renders the instruction in assembler syntax, e.g. "ldq r4, 0(r1)".
// `pc` is used to print branch targets as absolute hex addresses.
std::string Disassemble(const DecodedInst& inst, uint64_t pc);

}  // namespace dcpi

#endif  // SRC_ISA_INSTRUCTION_H_
