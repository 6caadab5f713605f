// Two-pass assembler for the Alpha-like ISA.
//
// Workload programs are written in assembler text and assembled into
// ExecutableImages at an absolute base address. Supported syntax:
//
//   # comment
//   .text
//   .proc  main              # begin a procedure symbol
//   loop:  ldq   r4, 0(r1)   # labels; memory operands "disp(base)"
//          addq  r0, 4, r0   # operate with 8-bit literal
//          stq   r4, 0(r2)
//          bne   r4, loop
//          ret   r31, (r26)
//   .endp
//   .align 32                # pad text with nops to a boundary
//   .data
//   arr:   .quad  1, 2, 3    # 64-bit values (integers or label addresses)
//          .double 1.5
//          .long  7          # 32-bit
//          .space 4096       # zero bytes (bss-like)
//          .align 8
//
// Pseudo-instructions (fixed expansions so pass 1 can size the text):
//   li  rX, imm32     -> ldah+lda pair
//   lia rX, label     -> ldah+lda pair materializing an absolute address
//   nop               -> bis r31, r31, r31
//   fnop              -> cpys f31, f31, f31
//   halt              -> call_pal 0
//   yield             -> call_pal 1
//   mov rA, rB        -> bis rA, rA, rB
//   fmov fA, fB       -> cpys fA, fA, fB
//
// Register aliases: zero (r31), sp (r30), ra (r26).

#ifndef SRC_ISA_ASSEMBLER_H_
#define SRC_ISA_ASSEMBLER_H_

#include <memory>
#include <string>
#include <unordered_map>

#include "src/isa/image.h"
#include "src/support/status.h"

namespace dcpi {

// External symbols (absolute addresses), e.g. procedures exported by other
// prelinked images. Local labels shadow externs. Cross-image calls use
// `lia rX, extern_name` + `jsr r26, (rX)` since bsr's displacement cannot
// span image bases.
using ExternSymbols = std::unordered_map<std::string, uint64_t>;

// The largest constant `li` loads: ldah's signed 16-bit high half plus
// lda's sign-extended low half reach 0x7fff'7fff, short of INT32_MAX.
inline constexpr int64_t kMaxLiValue = 0x7fff'7fff;

// Assembles `source` into an image named `image_name` with its text section
// at `text_base` (must be instruction-aligned and below 2^31 so addresses
// fit an ldah/lda pair). Returns the image or an error naming the line.
Result<std::shared_ptr<ExecutableImage>> Assemble(const std::string& image_name,
                                                  uint64_t text_base,
                                                  const std::string& source,
                                                  const ExternSymbols* externs = nullptr);

// Collects every procedure symbol of an image into an extern map.
ExternSymbols ExportedProcedures(const ExecutableImage& image);

}  // namespace dcpi

#endif  // SRC_ISA_ASSEMBLER_H_
