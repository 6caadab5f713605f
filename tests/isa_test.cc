// ISA tests: encode/decode round trips (property), operand extraction,
// assembler syntax/semantics/errors, and the disassembler.

#include <gtest/gtest.h>

#include <string>

#include "src/isa/assembler.h"
#include "src/isa/image_io.h"
#include "src/isa/instruction.h"
#include "src/support/rng.h"

namespace dcpi {
namespace {

TEST(Encoding, RoundTripAllOpcodes) {
  for (int op = 0; op < kNumOpcodes; ++op) {
    DecodedInst inst;
    inst.op = static_cast<Opcode>(op);
    const OpcodeInfo& oi = inst.info();
    inst.ra = 5;
    inst.rb = 9;
    inst.rc = 17;
    if (oi.format == InstrFormat::kMemory || oi.format == InstrFormat::kBranch) {
      inst.disp = -42;
      inst.rc = kZeroReg;
    }
    if (oi.format == InstrFormat::kPal) {
      inst.ra = inst.rb = inst.rc = kZeroReg;
      inst.disp = 3;
    }
    auto decoded = Decode(Encode(inst));
    ASSERT_TRUE(decoded.has_value()) << oi.mnemonic;
    EXPECT_EQ(decoded->op, inst.op) << oi.mnemonic;
    if (oi.format != InstrFormat::kPal) {
      EXPECT_EQ(decoded->ra, inst.ra) << oi.mnemonic;
    }
    if (oi.format == InstrFormat::kMemory) {
      EXPECT_EQ(decoded->rb, inst.rb);
      EXPECT_EQ(decoded->disp, inst.disp);
    }
    if (oi.format == InstrFormat::kOperate) {
      EXPECT_EQ(decoded->rb, inst.rb);
      EXPECT_EQ(decoded->rc, inst.rc);
    }
  }
}

TEST(Encoding, RoundTripRandomProperty) {
  SplitMix64 rng(42);
  for (int trial = 0; trial < 2000; ++trial) {
    DecodedInst inst;
    inst.op = static_cast<Opcode>(rng.NextBelow(kNumOpcodes));
    const OpcodeInfo& oi = inst.info();
    inst.ra = static_cast<uint8_t>(rng.NextBelow(32));
    inst.rc = static_cast<uint8_t>(rng.NextBelow(32));
    if (oi.format == InstrFormat::kOperate && rng.NextBelow(2) == 1) {
      inst.has_literal = true;
      inst.literal = static_cast<uint8_t>(rng.NextBelow(256));
    } else {
      inst.rb = static_cast<uint8_t>(rng.NextBelow(32));
    }
    if (oi.format == InstrFormat::kMemory || oi.format == InstrFormat::kBranch ||
        oi.format == InstrFormat::kPal) {
      inst.disp = static_cast<int16_t>(rng.Next());
      inst.rc = kZeroReg;
      inst.has_literal = false;
      inst.literal = 0;
    }
    if (oi.format == InstrFormat::kPal) inst.ra = inst.rb = kZeroReg;
    auto decoded = Decode(Encode(inst));
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(Encode(*decoded), Encode(inst)) << oi.mnemonic;
  }
}

TEST(Encoding, LiteralFlagPreserved) {
  DecodedInst inst;
  inst.op = Opcode::kAddq;
  inst.ra = 1;
  inst.has_literal = true;
  inst.literal = 200;
  inst.rc = 2;
  auto decoded = Decode(Encode(inst));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_TRUE(decoded->has_literal);
  EXPECT_EQ(decoded->literal, 200);
}

TEST(Operands, AlphaConventions) {
  // Loads and lda write their first operand; operates write their third.
  DecodedInst ldq;
  ldq.op = Opcode::kLdq;
  ldq.ra = 4;
  ldq.rb = 1;
  ASSERT_TRUE(ldq.DestReg().has_value());
  EXPECT_EQ(ldq.DestReg()->index, 4);
  RegRef srcs[3];
  EXPECT_EQ(ldq.SourceRegs(srcs), 1);
  EXPECT_EQ(srcs[0].index, 1);

  DecodedInst addq;
  addq.op = Opcode::kAddq;
  addq.ra = 1;
  addq.rb = 2;
  addq.rc = 3;
  EXPECT_EQ(addq.DestReg()->index, 3);
  EXPECT_EQ(addq.SourceRegs(srcs), 2);

  // Stores read both their data register and base register.
  DecodedInst stq;
  stq.op = Opcode::kStq;
  stq.ra = 4;
  stq.rb = 2;
  EXPECT_FALSE(stq.DestReg().has_value());
  EXPECT_EQ(stq.SourceRegs(srcs), 2);

  // cmov reads its own destination.
  DecodedInst cmov;
  cmov.op = Opcode::kCmovne;
  cmov.ra = 1;
  cmov.rb = 2;
  cmov.rc = 3;
  EXPECT_EQ(cmov.SourceRegs(srcs), 3);
}

TEST(Operands, ZeroRegisterIsNotASource) {
  DecodedInst addq;
  addq.op = Opcode::kAddq;
  addq.ra = 31;
  addq.rb = 31;
  addq.rc = 3;
  RegRef srcs[3];
  EXPECT_EQ(addq.SourceRegs(srcs), 0);
}

TEST(Assembler, RejectsBadInput) {
  auto bad = [](const char* source) {
    return !Assemble("t", 0x1000, source).ok();
  };
  EXPECT_TRUE(bad("frobnicate r1, r2, r3\n"));            // unknown mnemonic
  EXPECT_TRUE(bad("addq r1, 256, r3\n"));                 // literal too large
  EXPECT_TRUE(bad("addq r1, r2\n"));                      // missing operand
  EXPECT_TRUE(bad("bne r1, nowhere\n"));                  // undefined label
  EXPECT_TRUE(bad("ldq f1, 0(r1)\n"));                    // wrong register bank
  EXPECT_TRUE(bad("x: addq r1, 1, r1\nx: nop\n"));        // duplicate label
  EXPECT_TRUE(bad(".proc foo\nnop\n"));                   // unterminated .proc
  EXPECT_TRUE(bad("ldq r1, 40000(r1)\n"));                // displacement range
  EXPECT_FALSE(bad("addq r1, 255, r3\n"));                // boundary literal OK
  const std::string li_max = "li r1, " + std::to_string(kMaxLiValue) + "\n";
  const std::string li_over = "li r1, " + std::to_string(kMaxLiValue + 1) + "\n";
  EXPECT_FALSE(bad(li_max.c_str()));  // largest constant li loads
  EXPECT_TRUE(bad(li_over.c_str()));  // ldah's high half overflows
}

TEST(Assembler, BranchDisplacementAndLabels) {
  const char* source = R"(
        .text
start:  nop
        br  r31, fwd
        nop
fwd:    beq r1, start
)";
  auto image = Assemble("t", 0x1000, source);
  ASSERT_TRUE(image.ok()) << image.status().ToString();
  // br at index 1 targets index 3: disp = 3 - 2 = 1.
  auto br = Decode(image.value()->text()[1]);
  EXPECT_EQ(br->disp, 1);
  EXPECT_EQ(br->BranchTarget(0x1000 + 4), 0x1000 + 12u);
  // beq at index 3 targets index 0: disp = 0 - 4 = -4.
  auto beq = Decode(image.value()->text()[3]);
  EXPECT_EQ(beq->disp, -4);
}

TEST(Assembler, DataDirectivesAndSymbols) {
  const char* source = R"(
        .text
        nop
        .data
vals:   .quad 1, 0x10, 3
dbl:    .double 2.5
buf:    .space 100
        .align 64
tail:   .long 7
        .byte 1, 2
ptr:    .quad vals
)";
  auto image = Assemble("t", 0x1000, source);
  ASSERT_TRUE(image.ok()) << image.status().ToString();
  const ExecutableImage& img = *image.value();
  uint64_t vals = img.DataSymbolAddress("vals").value();
  EXPECT_EQ(vals, img.data_base());
  EXPECT_EQ(img.DataSymbolAddress("dbl").value(), vals + 24);
  EXPECT_EQ(img.DataSymbolAddress("buf").value(), vals + 32);
  uint64_t tail = img.DataSymbolAddress("tail").value();
  EXPECT_EQ(tail % 64, 0u);
  // ptr holds the address of vals.
  uint64_t ptr_off = img.DataSymbolAddress("ptr").value() - img.data_base();
  uint64_t stored = 0;
  for (int i = 0; i < 8; ++i) {
    stored |= static_cast<uint64_t>(img.data_init()[ptr_off + i]) << (8 * i);
  }
  EXPECT_EQ(stored, vals);
}

TEST(Assembler, ProcedureSymbolsAndLookup) {
  const char* source = R"(
        .text
        .proc alpha
        nop
        nop
        .endp
        .proc beta
        nop
        .endp
)";
  auto image = Assemble("t", 0x1000, source);
  ASSERT_TRUE(image.ok());
  const ExecutableImage& img = *image.value();
  ASSERT_EQ(img.procedures().size(), 2u);
  const ProcedureSymbol* alpha = img.FindProcedureByName("alpha");
  EXPECT_EQ(alpha->start, 0x1000u);
  EXPECT_EQ(alpha->end, 0x1008u);
  EXPECT_EQ(img.FindProcedure(0x1004)->name, "alpha");
  EXPECT_EQ(img.FindProcedure(0x1008)->name, "beta");
  EXPECT_EQ(img.FindProcedure(0x100c), nullptr);  // past the end
}

TEST(Assembler, LiExpandsToLdahLdaPair) {
  const char* source = "li r5, 0x12345678\n";
  auto image = Assemble("t", 0x1000, source);
  ASSERT_TRUE(image.ok());
  ASSERT_EQ(image.value()->num_instructions(), 2u);
  // Executing the pair must produce the constant; verify arithmetic.
  auto ldah = Decode(image.value()->text()[0]);
  auto lda = Decode(image.value()->text()[1]);
  int64_t value = (static_cast<int64_t>(ldah->disp) << 16) + lda->disp;
  EXPECT_EQ(value, 0x12345678);
}

TEST(Assembler, ExternSymbolsResolve) {
  ExternSymbols externs{{"far_away", 0x2000'0000}};
  const char* source = "lia r5, far_away\n";
  auto image = Assemble("t", 0x1000, source, &externs);
  ASSERT_TRUE(image.ok()) << image.status().ToString();
  auto ldah = Decode(image.value()->text()[0]);
  auto lda = Decode(image.value()->text()[1]);
  int64_t value = (static_cast<int64_t>(ldah->disp) << 16) + lda->disp;
  EXPECT_EQ(value, 0x2000'0000);
}

TEST(Disassembler, FormatsKeyCases) {
  DecodedInst ldq;
  ldq.op = Opcode::kLdq;
  ldq.ra = 4;
  ldq.rb = 1;
  ldq.disp = 16;
  EXPECT_EQ(Disassemble(ldq, 0), "ldq r4, 16(r1)");

  DecodedInst addq;
  addq.op = Opcode::kAddq;
  addq.ra = 1;
  addq.has_literal = true;
  addq.literal = 4;
  addq.rc = 1;
  EXPECT_EQ(Disassemble(addq, 0), "addq r1, 4, r1");

  DecodedInst addt;
  addt.op = Opcode::kAddt;
  addt.ra = 1;
  addt.rb = 2;
  addt.rc = 3;
  EXPECT_EQ(Disassemble(addt, 0), "addt f1, f2, f3");

  DecodedInst ret;
  ret.op = Opcode::kRet;
  ret.ra = 31;
  ret.rb = 26;
  EXPECT_EQ(Disassemble(ret, 0), "ret r31, (r26)");
}

TEST(ImageIo, SerializeRoundTrip) {
  const char* source = R"(
        .text
        .proc main
        li r1, 77
        halt
        .endp
        .data
x:      .quad 123
)";
  auto image = Assemble("roundtrip_image", 0x0200'0000, source);
  ASSERT_TRUE(image.ok());
  auto bytes = SerializeImage(*image.value());
  auto restored = DeserializeImage(bytes);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  const ExecutableImage& a = *image.value();
  const ExecutableImage& b = *restored.value();
  EXPECT_EQ(a.name(), b.name());
  EXPECT_EQ(a.text_base(), b.text_base());
  EXPECT_EQ(a.text(), b.text());
  EXPECT_EQ(a.data_init(), b.data_init());
  EXPECT_EQ(a.data_size(), b.data_size());
  ASSERT_EQ(b.procedures().size(), 1u);
  EXPECT_EQ(b.procedures()[0].name, "main");
  EXPECT_EQ(b.DataSymbolAddress("x").value(), a.DataSymbolAddress("x").value());
}

TEST(ImageIo, RejectsCorruptInput) {
  std::vector<uint8_t> garbage{1, 2, 3, 4, 5};
  EXPECT_FALSE(DeserializeImage(garbage).ok());
}

}  // namespace
}  // namespace dcpi
