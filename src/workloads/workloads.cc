#include "src/workloads/workloads.h"

#include <cassert>
#include <cstdio>
#include <cstdlib>

#include "src/check/image_lint.h"
#include "src/isa/assembler.h"

namespace dcpi {

namespace {

// Replaces every "%KEY%" placeholder in an assembly template.
std::string Subst(std::string text,
                  const std::vector<std::pair<std::string, uint64_t>>& subs) {
  for (const auto& [key, value] : subs) {
    std::string token = "%" + key + "%";
    std::string replacement = std::to_string(value);
    size_t pos = 0;
    while ((pos = text.find(token, pos)) != std::string::npos) {
      text.replace(pos, token.size(), replacement);
      pos += replacement.size();
    }
  }
  return text;
}

// ---- STREAM kernels (McCalpin) -------------------------------------------

// The copy loop is the Figure 2 loop: 13 instructions, 4x unrolled,
// four ldq / four stq per iteration, loop control interleaved.
constexpr char kStreamCopySource[] = R"(
        .text
        .proc mccalpin_copy
        li    r9, %OUTER%
outer:
        lia   r1, src_arr
        lia   r2, dst_arr
        li    r0, 0
        li    r3, %N%
copy_loop:
        ldq   r4, 0(r1)
        addq  r0, 4, r0
        ldq   r5, 8(r1)
        ldq   r6, 16(r1)
        ldq   r7, 24(r1)
        lda   r1, 32(r1)
        stq   r4, 0(r2)
        cmpult r0, r3, r4
        stq   r5, 8(r2)
        stq   r6, 16(r2)
        stq   r7, 24(r2)
        lda   r2, 32(r2)
        bne   r4, copy_loop
        subq  r9, 1, r9
        bne   r9, outer
        halt
        .endp
        .data
        .align 8192
src_arr: .space %BYTES%
dst_arr: .space %BYTES%
)";

constexpr char kStreamScaleSource[] = R"(
        .text
        .proc mccalpin_scale
        li    r9, %OUTER%
        lia   r10, sconst
        ldt   f10, 0(r10)
outer:
        lia   r1, src_arr
        lia   r2, dst_arr
        li    r0, 0
        li    r3, %N%
scale_loop:
        ldt   f1, 0(r1)
        addq  r0, 4, r0
        ldt   f2, 8(r1)
        ldt   f3, 16(r1)
        ldt   f4, 24(r1)
        lda   r1, 32(r1)
        mult  f1, f10, f1
        mult  f2, f10, f2
        mult  f3, f10, f3
        mult  f4, f10, f4
        stt   f1, 0(r2)
        cmpult r0, r3, r4
        stt   f2, 8(r2)
        stt   f3, 16(r2)
        stt   f4, 24(r2)
        lda   r2, 32(r2)
        bne   r4, scale_loop
        subq  r9, 1, r9
        bne   r9, outer
        halt
        .endp
        .data
sconst: .double 3.0
        .align 8192
src_arr: .space %BYTES%
dst_arr: .space %BYTES%
)";

constexpr char kStreamSumSource[] = R"(
        .text
        .proc mccalpin_sum
        li    r9, %OUTER%
outer:
        lia   r1, a_arr
        lia   r2, b_arr
        lia   r3, c_arr
        li    r0, 0
        li    r5, %N%
sum_loop:
        ldt   f1, 0(r1)
        ldt   f2, 0(r2)
        ldt   f3, 8(r1)
        ldt   f4, 8(r2)
        addq  r0, 2, r0
        addt  f1, f2, f5
        addt  f3, f4, f6
        stt   f5, 0(r3)
        cmpult r0, r5, r4
        stt   f6, 8(r3)
        lda   r1, 16(r1)
        lda   r2, 16(r2)
        lda   r3, 16(r3)
        bne   r4, sum_loop
        subq  r9, 1, r9
        bne   r9, outer
        halt
        .endp
        .data
        .align 8192
a_arr:  .space %BYTES%
b_arr:  .space %BYTES%
c_arr:  .space %BYTES%
)";

constexpr char kStreamTriadSource[] = R"(
        .text
        .proc mccalpin_triad
        li    r9, %OUTER%
        lia   r10, sconst
        ldt   f10, 0(r10)
outer:
        lia   r1, a_arr
        lia   r2, b_arr
        lia   r3, c_arr
        li    r0, 0
        li    r5, %N%
triad_loop:
        ldt   f1, 0(r1)
        ldt   f2, 0(r2)
        ldt   f3, 8(r1)
        ldt   f4, 8(r2)
        addq  r0, 2, r0
        mult  f2, f10, f2
        mult  f4, f10, f4
        addt  f1, f2, f5
        addt  f3, f4, f6
        stt   f5, 0(r3)
        cmpult r0, r5, r4
        stt   f6, 8(r3)
        lda   r1, 16(r1)
        lda   r2, 16(r2)
        lda   r3, 16(r3)
        bne   r4, triad_loop
        subq  r9, 1, r9
        bne   r9, outer
        halt
        .endp
        .data
sconst: .double 3.0
        .align 8192
a_arr:  .space %BYTES%
b_arr:  .space %BYTES%
c_arr:  .space %BYTES%
)";

// ---- wave5-like FP program -------------------------------------------------

// parmvr dominates; smooth reads two streams and writes a third, so its
// board-cache conflict misses depend on the per-run page colouring
// (Figure 3's variance); fftb/ffef/putb/vslvip are mid-weight.
constexpr char kWave5Source[] = R"(
        .text
        .proc main
        li    r20, %ROUNDS%
round:
        bsr   r26, parmvr_
        bsr   r26, smooth_
        bsr   r26, putb_
        bsr   r26, vslvip_
        and   r20, 7, r21
        bne   r21, skip_fft
        bsr   r26, fftb_
        bsr   r26, ffef_
skip_fft:
        subq  r20, 1, r20
        bne   r20, round
        halt
        .endp

        # Strides over a >4 MB footprint: every access misses the board
        # cache regardless of page colouring, so its timing is stable
        # across runs (unlike smooth_).
        .proc parmvr_
        lia   r1, pa_arr
        lia   r10, consts
        ldt   f10, 0(r10)
        ldt   f11, 8(r10)
        li    r2, %PARMVR_N%
parmvr_loop:
        ldt   f1, 0(r1)
        ldt   f2, 8(r1)
        mult  f1, f10, f3
        mult  f2, f10, f4
        addt  f3, f11, f5
        addt  f4, f11, f6
        mult  f5, f1, f5
        mult  f6, f2, f6
        stt   f5, 0(r1)
        stt   f6, 8(r1)
        lda   r1, 528(r1)
        subq  r2, 1, r2
        bne   r2, parmvr_loop
        ret   r31, (r26)
        .endp

        .proc smooth_
        lia   r1, sm_a
        lia   r2, sm_b
        lia   r3, sm_c
        li    r4, %SMOOTH_N%
smooth_loop:
        ldt   f1, 0(r1)
        ldt   f2, 0(r2)
        ldt   f3, 64(r1)
        addt  f1, f2, f4
        addt  f3, f4, f4
        stt   f4, 0(r3)
        lda   r1, 64(r1)
        lda   r2, 64(r2)
        lda   r3, 64(r3)
        subq  r4, 1, r4
        bne   r4, smooth_loop
        ret   r31, (r26)
        .endp

        .proc fftb_
        lia   r1, pa_arr
        li    r2, %FFT_N%
fftb_loop:
        ldt   f1, 0(r1)
        ldt   f2, 8(r1)
        mult  f1, f2, f3
        subt  f1, f2, f4
        addt  f3, f4, f5
        stt   f5, 0(r1)
        lda   r1, 2064(r1)
        subq  r2, 1, r2
        bne   r2, fftb_loop
        ret   r31, (r26)
        .endp

        .proc ffef_
        lia   r1, pa_arr
        li    r2, %FFT_N%
ffef_loop:
        ldt   f1, 0(r1)
        addt  f1, f1, f2
        mult  f2, f1, f3
        stt   f3, 8(r1)
        lda   r1, 2064(r1)
        subq  r2, 1, r2
        bne   r2, ffef_loop
        ret   r31, (r26)
        .endp

        .proc putb_
        lia   r1, pa_arr
        lia   r2, putb_sink
        li    r3, %PUTB_N%
        bis   r31, r31, r5
putb_loop:
        ldq   r4, 0(r1)
        addq  r5, r4, r5
        ldq   r4, 8(r1)
        addq  r5, r4, r5
        lda   r1, 1392(r1)
        subq  r3, 1, r3
        bne   r3, putb_loop
        stq   r5, 0(r2)
        ret   r31, (r26)
        .endp

        .proc vslvip_
        lia   r1, out_arr
        lia   r10, consts
        ldt   f10, 0(r10)
        li    r2, %VSLVIP_N%
vslvip_loop:
        ldt   f1, 0(r1)
        mult  f1, f10, f2
        addt  f2, f10, f3
        stt   f3, 0(r1)
        lda   r1, 1040(r1)
        subq  r2, 1, r2
        bne   r2, vslvip_loop
        ret   r31, (r26)
        .endp

        .data
consts: .double 0.9999, 0.0001
putb_sink: .quad 0
        .align 8192
pa_arr: .space %PA_BYTES%
sm_a:   .space %SM_BYTES%
sm_b:   .space %SM_BYTES%
sm_c:   .space %SM_BYTES%
out_arr: .space %OUT_BYTES%
)";

// ---- gcc-like integer program ----------------------------------------------

constexpr char kGccLikeSource[] = R"(
        .text
        .proc main
        bsr   r26, init_data
        li    r20, %ROUNDS%
round:
        bsr   r26, lex_scan
        bsr   r26, hash_insert
        bsr   r26, tree_walk
        subq  r20, 1, r20
        bne   r20, round
        halt
        .endp

        .proc init_data
        lia   r1, text_buf
        li    r2, %TEXT_QUADS%
        li    r3, 12345
        li    r7, 1664525
        li    r8, 1013904223
init_loop:
        mulq  r3, r7, r3
        addq  r3, r8, r3
        stq   r3, 0(r1)
        lda   r1, 8(r1)
        subq  r2, 1, r2
        bne   r2, init_loop
        ret   r31, (r26)
        .endp

        .proc lex_scan
        lia   r1, text_buf
        li    r2, %TEXT_QUADS%
        bis   r31, r31, r4
lex_loop:
        ldq   r3, 0(r1)
        and   r3, 3, r5
        beq   r5, lex_tok0
        cmpeq r5, 1, r6
        bne   r6, lex_tok1
        addq  r4, 2, r4
        br    r31, lex_next
lex_tok0:
        addq  r4, 1, r4
        br    r31, lex_next
lex_tok1:
        sll   r4, 1, r4
        and   r4, 255, r4
lex_next:
        lda   r1, 8(r1)
        subq  r2, 1, r2
        bne   r2, lex_loop
        lia   r1, sink
        stq   r4, 0(r1)
        ret   r31, (r26)
        .endp

        .proc hash_insert
        lia   r1, text_buf
        lia   r8, hash_tab
        li    r2, %HASH_OPS%
        li    r9, %HASH_MASK%
hash_loop:
        ldq   r3, 0(r1)
        srl   r3, 3, r4
        xor   r3, r4, r4
        and   r4, r9, r4
        sll   r4, 3, r4
        addq  r8, r4, r5
        ldq   r6, 0(r5)
        addq  r6, 1, r6
        stq   r6, 0(r5)
        lda   r1, 8(r1)
        subq  r2, 1, r2
        bne   r2, hash_loop
        ret   r31, (r26)
        .endp

        .proc tree_walk
        lia   r1, text_buf
        li    r2, %WALK_OPS%
        li    r9, %TEXT_MASK%
        bis   r31, r31, r3
walk_loop:
        sll   r3, 3, r4
        lia   r5, text_buf
        addq  r5, r4, r5
        ldq   r3, 0(r5)
        and   r3, r9, r3
        subq  r2, 1, r2
        bne   r2, walk_loop
        ret   r31, (r26)
        .endp

        .data
sink:   .quad 0
        .align 8192
hash_tab: .space %HASH_BYTES%
text_buf: .space %TEXT_BYTES%
)";

// ---- X11-like server -------------------------------------------------------

constexpr char kFfbLibSource[] = R"(
        .text
        .proc ffb8ZeroPolyArc
        lia   r1, fb_mem
        li    r2, %ARC_STEPS%
        li    r3, 0
        li    r7, 255
arc_loop:
        addq  r3, 3, r4
        mulq  r4, r3, r5
        srl   r5, 4, r5
        and   r5, r7, r6
        sll   r6, 5, r6
        addq  r1, r6, r6
        stl   r4, 0(r6)
        stl   r5, 4(r6)
        addq  r3, 1, r3
        cmplt r3, r2, r4
        bne   r4, arc_loop
        ret   r31, (r26)
        .endp

        .proc ffb8FillPolygon
        lia   r1, fb_mem
        li    r2, %FILL_QUADS%
        li    r3, 0x7f7f
fill_loop:
        stq   r3, 0(r1)
        stq   r3, 8(r1)
        stq   r3, 16(r1)
        stq   r3, 24(r1)
        lda   r1, 32(r1)
        subq  r2, 1, r2
        bne   r2, fill_loop
        ret   r31, (r26)
        .endp
        .data
        .align 8192
fb_mem: .space %FB_BYTES%
)";

constexpr char kMiLibSource[] = R"(
        .text
        .proc miCreateETandAET
        lia   r1, et_buf
        li    r2, %ET_OPS%
        li    r9, 1023
et_loop:
        ldq   r3, 0(r1)
        addq  r3, 7, r3
        and   r3, r9, r4
        beq   r4, et_skip
        stq   r3, 0(r1)
et_skip:
        lda   r1, 8(r1)
        subq  r2, 1, r2
        bne   r2, et_loop
        ret   r31, (r26)
        .endp

        .proc miZeroArcSetup
        li    r2, %SETUP_OPS%
        li    r3, 3
        bis   r31, r31, r4
setup_loop:
        mulq  r3, r3, r5
        addq  r5, r4, r4
        addq  r3, 2, r3
        subq  r2, 1, r2
        bne   r2, setup_loop
        lia   r1, et_buf
        stq   r4, 0(r1)
        ret   r31, (r26)
        .endp

        .proc miInsertEdgeInET
        lia   r1, et_buf
        li    r2, %INSERT_OPS%
ins_loop:
        ldq   r3, 0(r1)
        ldq   r4, 8(r1)
        cmplt r3, r4, r5
        beq   r5, ins_swap
        br    r31, ins_next
ins_swap:
        stq   r4, 0(r1)
        stq   r3, 8(r1)
ins_next:
        lda   r1, 8(r1)
        subq  r2, 1, r2
        bne   r2, ins_loop
        ret   r31, (r26)
        .endp
        .data
        .align 8192
et_buf: .space %ET_BYTES%
)";

constexpr char kOsLibSource[] = R"(
        .text
        .proc ReadRequestFromClient
        lia   r1, req_buf
        lia   r2, req_out
        li    r3, %REQ_QUADS%
req_loop:
        ldq   r4, 0(r1)
        ldq   r5, 8(r1)
        stq   r4, 0(r2)
        stq   r5, 8(r2)
        lda   r1, 16(r1)
        lda   r2, 16(r2)
        subq  r3, 1, r3
        bne   r3, req_loop
        ret   r31, (r26)
        .endp
        .data
        .align 8192
req_buf: .space %REQ_BYTES%
req_out: .space %REQ_BYTES%
)";

// Cross-image calls go through lia+jsr: bsr cannot span prelinked image
// bases (and the indirect calls exercise the CFG builder's jump handling).
constexpr char kXServerSource[] = R"(
        .text
        .proc main
        li    r20, %REQUESTS%
dispatch:
        lia   r22, ReadRequestFromClient
        jsr   r26, (r22)
        lia   r22, ffb8ZeroPolyArc
        jsr   r26, (r22)
        and   r20, 3, r21
        bne   r21, skip_fill
        lia   r22, ffb8FillPolygon
        jsr   r26, (r22)
        lia   r22, miCreateETandAET
        jsr   r26, (r22)
skip_fill:
        and   r20, 7, r21
        bne   r21, skip_setup
        lia   r22, miZeroArcSetup
        jsr   r26, (r22)
        lia   r22, miInsertEdgeInET
        jsr   r26, (r22)
skip_setup:
        subq  r20, 1, r20
        bne   r20, dispatch
        halt
        .endp
)";

// ---- AltaVista-like index serving ------------------------------------------

constexpr char kAltaVistaSource[] = R"(
        .text
        .proc main
        bsr   r26, build_index
        li    r20, %QUERIES%
        li    r19, %SEED%
        li    r18, 25214903
query:
        mulq  r19, r18, r19
        addq  r19, 11, r19
        srl   r19, 16, r1
        li    r2, %INDEX_MASK%
        and   r1, r2, r1
        bsr   r26, probe_index
        subq  r20, 1, r20
        bne   r20, query
        halt
        .endp

        .proc build_index
        lia   r1, index_arr
        li    r2, %INDEX_N%
        bis   r31, r31, r3
build_loop:
        sll   r3, 4, r4
        stq   r4, 0(r1)
        lda   r1, 8(r1)
        addq  r3, 1, r3
        subq  r2, 1, r2
        bne   r2, build_loop
        ret   r31, (r26)
        .endp

        # Probe the index at slot r1 and walk a short posting run.
        .proc probe_index
        lia   r2, index_arr
        sll   r1, 3, r3
        addq  r2, r3, r3
        ldq   r4, 0(r3)
        ldq   r5, 8(r3)
        addq  r4, r5, r6
        ldq   r7, 16(r3)
        addq  r6, r7, r6
        lia   r8, hitcount
        ldq   r9, 0(r8)
        addq  r9, 1, r9
        stq   r9, 0(r8)
        ret   r31, (r26)
        .endp

        .data
hitcount: .quad 0
        .align 8192
index_arr: .space %INDEX_BYTES%
)";

// ---- DSS-like scan ----------------------------------------------------------

constexpr char kDssSource[] = R"(
        .text
        .proc main
        bsr   r26, load_table
        li    r20, %PASSES%
pass:
        bsr   r26, scan_table
        subq  r20, 1, r20
        bne   r20, pass
        halt
        .endp

        .proc load_table
        lia   r1, table_arr
        li    r2, %TABLE_N%
        li    r3, 777
        li    r7, 1103515245
        li    r8, 12345
load_loop:
        mulq  r3, r7, r3
        addq  r3, r8, r3
        stq   r3, 0(r1)
        lda   r1, 8(r1)
        subq  r2, 1, r2
        bne   r2, load_loop
        ret   r31, (r26)
        .endp

        .proc scan_table
        lia   r1, table_arr
        li    r2, %TABLE_N%
        bis   r31, r31, r3
        li    r5, 1000
        li    r9, 2047
scan_loop:
        ldq   r4, 0(r1)
        and   r4, r9, r6
        cmplt r6, r5, r7
        cmovne r7, r4, r8
        addq  r3, r8, r3
        lda   r1, 8(r1)
        subq  r2, 1, r2
        bne   r2, scan_loop
        lia   r1, agg_out
        stq   r3, 0(r1)
        ret   r31, (r26)
        .endp

        .data
agg_out: .quad 0
        .align 8192
table_arr: .space %TABLE_BYTES%
)";

// ---- Microworkloads ---------------------------------------------------------

constexpr char kPointerChaseSource[] = R"(
        .text
        .proc main
        lia   r1, chase_arr
        li    r2, %N%
        li    r6, 40503
        li    r7, %NMASK%
        bis   r31, r31, r3
init:
        addq  r3, r6, r4
        and   r4, r7, r4
        sll   r4, 3, r4
        addq  r1, r4, r4
        sll   r3, 3, r5
        addq  r1, r5, r5
        stq   r4, 0(r5)
        addq  r3, 1, r3
        cmplt r3, r2, r4
        bne   r4, init
        bis   r1, r1, r8
        li    r9, %CHASES%
        .endp
        .proc chase
chase_loop:
        ldq   r8, 0(r8)
        subq  r9, 1, r9
        bne   r9, chase_loop
        halt
        .endp
        .data
        .align 8192
chase_arr: .space %BYTES%
)";

constexpr char kBranchHeavySource[] = R"(
        .text
        .proc main
        li    r3, 98765
        li    r7, 1664525
        li    r8, 1013904223
        li    r20, %ITERS%
        bis   r31, r31, r10
loop:
        mulq  r3, r7, r3
        addq  r3, r8, r3
        srl   r3, 13, r4
        and   r4, 1, r4
        beq   r4, path_a
        addq  r10, 3, r10
        br    r31, merge
path_a:
        subq  r10, 1, r10
merge:
        srl   r3, 17, r5
        and   r5, 1, r5
        beq   r5, merge2
        xor   r10, r3, r10
merge2:
        subq  r20, 1, r20
        bne   r20, loop
        lia   r1, sink
        stq   r10, 0(r1)
        halt
        .endp
        .data
sink:   .quad 0
)";

constexpr char kImulFdivSource[] = R"(
        .text
        .proc main
        li    r20, %ITERS%
        li    r3, 7
        lia   r10, consts
        ldt   f1, 0(r10)
        ldt   f2, 8(r10)
loop:
        mulq  r3, r3, r4
        mulq  r4, r3, r5
        divt  f1, f2, f3
        divt  f3, f2, f4
        addq  r5, 1, r3
        li    r8, 4095
        and   r3, r8, r3
        addq  r3, 3, r3
        fmov  f4, f1
        subq  r20, 1, r20
        bne   r20, loop
        halt
        .endp
        .data
consts: .double 123456.789, 1.0001
)";

constexpr char kWriteBufferSource[] = R"(
        .text
        .proc main
        li    r9, %OUTER%
outer:
        lia   r1, wb_arr
        li    r2, %STORES%
store_loop:
        stq   r2, 0(r1)
        stq   r2, 64(r1)
        stq   r2, 128(r1)
        stq   r2, 192(r1)
        lda   r1, 256(r1)
        subq  r2, 1, r2
        bne   r2, store_loop
        subq  r9, 1, r9
        bne   r9, outer
        halt
        .endp
        .data
        .align 8192
wb_arr: .space %BYTES%
)";

}  // namespace

Status Workload::Instantiate(System* system) const {
  for (const ProcessSpec& spec : processes) {
    Result<Process*> process = system->AddProcess(spec.name, spec.images, spec.entry_proc);
    if (!process.ok()) return process.status();
  }
  return Status::Ok();
}

WorkloadFactory::WorkloadFactory(double scale, uint64_t seed)
    : scale_(scale), seed_(seed) {}

uint64_t WorkloadFactory::NextBase() {
  uint64_t base = next_base_;
  next_base_ += 0x0080'0000;  // 8 MB of address space per image
  return base;
}

uint64_t WorkloadFactory::Iters(uint64_t base_count) {
  const double scaled = static_cast<double>(base_count) * scale_;
  // Every count is loaded by one `li`. Testing the double also rejects a
  // NaN, whose conversion to an integer would be undefined.
  if (!(scaled >= 0 && scaled < static_cast<double>(kMaxLiValue) + 1)) {
    if (status_.ok()) {
      char message[160];
      std::snprintf(message, sizeof(message),
                    "workload scale %g: %llu base iterations exceed the largest "
                    "loop count %lld",
                    scale_, static_cast<unsigned long long>(base_count),
                    static_cast<long long>(kMaxLiValue));
      status_ = InvalidArgument(message);
    }
    return 1;
  }
  const uint64_t iters = static_cast<uint64_t>(scaled);
  return iters == 0 ? 1 : iters;
}

std::shared_ptr<ExecutableImage> WorkloadFactory::Build(const std::string& name,
                                                        const std::string& source,
                                                        const ExternSymbols* externs) {
  Result<std::shared_ptr<ExecutableImage>> image =
      Assemble(name, NextBase(), source, externs);
  if (!image.ok()) {
    std::fprintf(stderr, "workload %s failed to assemble: %s\n", name.c_str(),
                 image.status().ToString().c_str());
    std::abort();
  }
  // Fail fast on a broken workload (bad branch target, never-written
  // register, fallthrough off the procedure end) instead of letting a run
  // produce profiles the analysis then faithfully misattributes.
  CheckReport lint;
  LintImage(*image.value(), &lint);
  if (!lint.ok()) {
    std::fprintf(stderr, "workload %s failed the image lint:\n%s", name.c_str(),
                 lint.ToString().c_str());
    std::abort();
  }
  return image.value();
}

Workload WorkloadFactory::McCalpin(StreamKernel kernel) {
  constexpr uint64_t kElems = 512 * 1024;  // 4 MB per array
  const char* source = nullptr;
  const char* name = nullptr;
  const char* entry = nullptr;
  switch (kernel) {
    case StreamKernel::kCopy:
      source = kStreamCopySource;
      name = "mccalpin_copy";
      entry = "mccalpin_copy";
      break;
    case StreamKernel::kScale:
      source = kStreamScaleSource;
      name = "mccalpin_scale";
      entry = "mccalpin_scale";
      break;
    case StreamKernel::kSum:
      source = kStreamSumSource;
      name = "mccalpin_sum";
      entry = "mccalpin_sum";
      break;
    case StreamKernel::kTriad:
      source = kStreamTriadSource;
      name = "mccalpin_triad";
      entry = "mccalpin_triad";
      break;
  }
  std::string text = Subst(source, {{"OUTER", Iters(4)},
                                    {"N", kElems},
                                    {"BYTES", kElems * 8}});
  Workload workload;
  workload.name = name;
  workload.description = "McCalpin STREAM kernel; memory-bandwidth bound";
  workload.processes.push_back({name, {Build(name, text)}, entry});
  return workload;
}

Workload WorkloadFactory::SpecFpLike() {
  std::string text = Subst(kWave5Source, {{"ROUNDS", Iters(12)},
                                          {"PARMVR_N", 8192},
                                          {"SMOOTH_N", 4096},
                                          {"FFT_N", 2048},
                                          {"PUTB_N", 3072},
                                          {"VSLVIP_N", 4096},
                                          {"PA_BYTES", 4600 * 1024},
                                          {"SM_BYTES", 1 << 18},
                                          {"OUT_BYTES", 4400 * 1024}});
  Workload workload;
  workload.name = "specfp_like";
  workload.description = "wave5-style FP kernels; parmvr-dominant, smooth conflict-prone";
  workload.processes.push_back({"wave5", {Build("wave5", text)}, "main"});
  return workload;
}

Workload WorkloadFactory::SpecIntLike() {
  std::string text = Subst(kGccLikeSource, {{"ROUNDS", Iters(12)},
                                            {"TEXT_QUADS", 32768},
                                            {"TEXT_BYTES", 32768 * 8},
                                            {"TEXT_MASK", 32767},
                                            {"HASH_OPS", 16384},
                                            {"HASH_MASK", 8191},
                                            {"HASH_BYTES", 8192 * 8},
                                            {"WALK_OPS", 8192}});
  Workload workload;
  workload.name = "specint_like";
  workload.description = "branchy integer code: scanning, hashing, pointer walks";
  workload.processes.push_back({"specint", {Build("specint", text)}, "main"});
  return workload;
}

Workload WorkloadFactory::GccLike(int invocations) {
  // gcc's defining property for the collection system (Section 5.1) is a
  // *large, flat* PC working set under many distinct PIDs: samples rarely
  // repeat a (PID, PC) pair, so the driver hash table evicts constantly.
  // We synthesize a compiler-shaped binary: the fixed scanning/hashing
  // procedures plus several hundred generated "pass" procedures that main
  // sweeps every round.
  constexpr int kPasses = 240;
  std::string source = R"(
        .text
        .proc main
        bsr   r26, init_data
        li    r20, )" + std::to_string(Iters(2)) + R"(
round:
        bsr   r26, lex_scan
        bsr   r26, hash_insert
        bsr   r26, tree_walk
        bsr   r26, run_passes
        subq  r20, 1, r20
        bne   r20, round
        halt
        .endp
        .proc run_passes
        mov   r26, r24
)";
  for (int p = 0; p < kPasses; ++p) {
    source += "        bsr   r26, pass_" + std::to_string(p) + "\n";
  }
  source += R"(
        ret   r31, (r24)
        .endp
)";
  SplitMix64 pass_rng(seed_ * 65537 + 5);
  for (int p = 0; p < kPasses; ++p) {
    source += "        .proc pass_" + std::to_string(p) + "\n";
    source += "        li r1, " + std::to_string(p + 3) + "\n";
    source += "        li r2, 6\npass_" + std::to_string(p) + "_loop:\n";
    int body = 12 + static_cast<int>(pass_rng.NextBelow(24));
    for (int i = 0; i < body; ++i) {
      switch (pass_rng.NextBelow(4)) {
        case 0:
          source += "        addq r1, " + std::to_string(1 + pass_rng.NextBelow(7)) +
                    ", r1\n";
          break;
        case 1:
          source += "        xor r1, " + std::to_string(1 + pass_rng.NextBelow(255)) +
                    ", r1\n";
          break;
        case 2:
          source += "        sll r1, 1, r3\n        addq r1, r3, r1\n";
          break;
        default:
          source += "        srl r1, 2, r4\n        xor r1, r4, r1\n";
          break;
      }
    }
    source += "        subq r2, 1, r2\n";
    source += "        bne r2, pass_" + std::to_string(p) + "_loop\n";
    source += "        ret r31, (r26)\n        .endp\n";
  }
  // The fixed compiler-ish procedures (scan/hash/walk) share the image.
  std::string fixed = Subst(kGccLikeSource, {{"ROUNDS", 1},
                                             {"TEXT_QUADS", 16384},
                                             {"TEXT_BYTES", 16384 * 8},
                                             {"TEXT_MASK", 16383},
                                             {"HASH_OPS", 8192},
                                             {"HASH_MASK", 8191},
                                             {"HASH_BYTES", 8192 * 8},
                                             {"WALK_OPS", 4096}});
  // Strip the template's own main (ours drives the run) but keep the rest.
  size_t endp = fixed.find(".endp");
  fixed = fixed.substr(fixed.find(".endp") + 5);
  (void)endp;
  source += fixed;

  std::shared_ptr<ExecutableImage> image = Build("gcc", source);
  Workload workload;
  workload.name = "gcc";
  workload.description = "many invocations of a large flat binary (high eviction rate)";
  for (int i = 0; i < invocations; ++i) {
    workload.processes.push_back({"gcc_" + std::to_string(i), {image}, "main"});
  }
  return workload;
}

Workload WorkloadFactory::X11PerfLike() {
  auto ffb = Build("/usr/shlib/X11/lib_dec_ffb.so",
                   Subst(kFfbLibSource, {{"ARC_STEPS", 2048},
                                         {"FILL_QUADS", 2048},
                                         {"FB_BYTES", 1 << 19}}));
  auto mi = Build("/usr/shlib/X11/libmi.so",
                  Subst(kMiLibSource, {{"ET_OPS", 2048},
                                       {"SETUP_OPS", 1024},
                                       {"INSERT_OPS", 1024},
                                       {"ET_BYTES", 1 << 17}}));
  auto os = Build("/usr/shlib/X11/libos.so",
                  Subst(kOsLibSource, {{"REQ_QUADS", 1024}, {"REQ_BYTES", 1 << 17}}));
  ExternSymbols externs;
  for (const auto& lib : {ffb, mi, os}) {
    for (const auto& [name, addr] : ExportedProcedures(*lib)) externs[name] = addr;
  }
  auto server =
      Build("Xserver", Subst(kXServerSource, {{"REQUESTS", Iters(1024)}}), &externs);
  Workload workload;
  workload.name = "x11perf";
  workload.description = "X-server-like dispatch over three shared libraries";
  workload.processes.push_back({"Xserver", {server, ffb, mi, os}, "main"});
  return workload;
}

Workload WorkloadFactory::AltaVistaLike(uint32_t num_cpus) {
  constexpr uint64_t kIndexN = 1 << 18;  // 2 MB index
  Workload workload;
  workload.name = "altavista";
  workload.description = "memory-latency-bound random index probes, 8 query streams";
  workload.num_cpus = num_cpus;
  std::string text = Subst(kAltaVistaSource, {{"QUERIES", Iters(20000)},
                                              {"SEED", 1234567 + seed_},
                                              {"INDEX_N", kIndexN},
                                              {"INDEX_MASK", kIndexN - 1},
                                              {"INDEX_BYTES", kIndexN * 8}});
  std::shared_ptr<ExecutableImage> image = Build("altavista", text);
  for (uint32_t i = 0; i < 8; ++i) {
    workload.processes.push_back({"query_" + std::to_string(i), {image}, "main"});
  }
  return workload;
}

Workload WorkloadFactory::DssLike(uint32_t num_cpus) {
  constexpr uint64_t kTableN = 1 << 18;  // 2 MB table
  Workload workload;
  workload.name = "dss";
  workload.description = "decision-support scan/aggregate over a large table";
  workload.num_cpus = num_cpus;
  std::string text = Subst(kDssSource, {{"PASSES", Iters(4)},
                                        {"TABLE_N", kTableN},
                                        {"TABLE_BYTES", kTableN * 8}});
  std::shared_ptr<ExecutableImage> image = Build("dss", text);
  for (uint32_t i = 0; i < num_cpus; ++i) {
    workload.processes.push_back({"dss_" + std::to_string(i), {image}, "main"});
  }
  return workload;
}

Workload WorkloadFactory::ParallelSpecFp(uint32_t num_cpus) {
  Workload workload;
  workload.name = "parallel_specfp";
  workload.description = "the FP program, one process per CPU (SUIF-style)";
  workload.num_cpus = num_cpus;
  for (uint32_t i = 0; i < num_cpus; ++i) {
    std::string text = Subst(kWave5Source, {{"ROUNDS", Iters(6)},
                                            {"PARMVR_N", 8192},
                                            {"SMOOTH_N", 4096},
                                            {"FFT_N", 2048},
                                            {"PUTB_N", 3072},
                                            {"VSLVIP_N", 4096},
                                            {"PA_BYTES", 4600 * 1024},
                                            {"SM_BYTES", 1 << 18},
                                            {"OUT_BYTES", 4400 * 1024}});
    std::string name = "wave5_par" + std::to_string(i);
    workload.processes.push_back({name, {Build(name, text)}, "main"});
  }
  return workload;
}

Workload WorkloadFactory::Timesharing(uint32_t num_cpus) {
  Workload workload;
  workload.name = "timesharing";
  workload.description = "office/technical mix: compiles, FP, server traffic";
  workload.num_cpus = num_cpus;
  Workload gcc = GccLike(4);
  Workload fp = SpecFpLike();
  Workload x11 = X11PerfLike();
  Workload av = AltaVistaLike(num_cpus);
  for (auto& p : gcc.processes) workload.processes.push_back(p);
  for (auto& p : fp.processes) workload.processes.push_back(p);
  for (auto& p : x11.processes) workload.processes.push_back(p);
  workload.processes.push_back(av.processes[0]);
  workload.processes.push_back(av.processes[1]);
  return workload;
}

Workload WorkloadFactory::PointerChase() {
  constexpr uint64_t kN = 1 << 20;  // 8 MB chase array
  std::string text = Subst(kPointerChaseSource, {{"N", kN},
                                                 {"NMASK", kN - 1},
                                                 {"CHASES", Iters(200000)},
                                                 {"BYTES", kN * 8}});
  Workload workload;
  workload.name = "pointer_chase";
  workload.description = "dependent loads; exposes full memory latency (D-cache culprit)";
  workload.processes.push_back({"chase", {Build("chase", text)}, "main"});
  return workload;
}

Workload WorkloadFactory::BranchHeavy() {
  std::string text = Subst(kBranchHeavySource, {{"ITERS", Iters(300000)}});
  Workload workload;
  workload.name = "branch_heavy";
  workload.description = "data-dependent unpredictable branches (mispredict culprit)";
  workload.processes.push_back({"branchy", {Build("branchy", text)}, "main"});
  return workload;
}

Workload WorkloadFactory::IcacheStress() {
  // 96 procedures x ~260 instructions = ~100 KB of text round-robined
  // through an 8 KB I-cache.
  std::string source = "        .text\n        .proc main\n        li r20, " +
                       std::to_string(Iters(60)) + "\nround:\n";
  for (int p = 0; p < 96; ++p) {
    source += "        bsr r26, body_" + std::to_string(p) + "\n";
  }
  source +=
      "        subq r20, 1, r20\n"
      "        bne r20, round\n"
      "        halt\n"
      "        .endp\n";
  for (int p = 0; p < 96; ++p) {
    source += "        .proc body_" + std::to_string(p) + "\n";
    source += "        li r1, " + std::to_string(p + 1) + "\n";
    for (int i = 0; i < 128; ++i) {
      source += "        addq r1, " + std::to_string((i % 7) + 1) + ", r1\n";
      source += "        xor r1, " + std::to_string((i % 5) + 1) + ", r1\n";
    }
    source += "        ret r31, (r26)\n        .endp\n";
  }
  Workload workload;
  workload.name = "icache_stress";
  workload.description = "100 KB instruction working set (I-cache culprit)";
  workload.processes.push_back({"icache", {Build("icache", source)}, "main"});
  return workload;
}

Workload WorkloadFactory::ImulFdivStress() {
  std::string text = Subst(kImulFdivSource, {{"ITERS", Iters(100000)}});
  Workload workload;
  workload.name = "imul_fdiv";
  workload.description = "dependent multiplies and divides (IMUL/FDIV busy culprit)";
  workload.processes.push_back({"muldiv", {Build("muldiv", text)}, "main"});
  return workload;
}

Workload WorkloadFactory::WriteBufferStress() {
  std::string text = Subst(kWriteBufferSource, {{"OUTER", Iters(8)},
                                                {"STORES", 16384},
                                                {"BYTES", (16384 + 4) * 256}});
  Workload workload;
  workload.name = "write_buffer";
  workload.description = "line-spaced store stream (write-buffer overflow culprit)";
  workload.processes.push_back({"wbstress", {Build("wbstress", text)}, "main"});
  return workload;
}

Workload WorkloadFactory::FalseSharing(uint32_t num_cpus) {
  // Every worker owns one 8-byte slot of `shared_ctrs` (a single 64-byte
  // line) and one whole line of `private_arr`. The shared line is touched
  // by every CPU at distinct offsets — the false-sharing signature — while
  // each private line is single-CPU and must stay unflagged. Workers get
  // distinct entry procedures so each process's loop has its own PCs.
  std::string source = "        .text\n";
  for (uint32_t w = 0; w < num_cpus; ++w) {
    const std::string ws = std::to_string(w);
    source += "        .proc worker" + ws + "\n";
    source += "        lia   r1, shared_ctrs\n";
    source += "        lia   r2, private_arr\n";
    source += "        li    r20, " + std::to_string(Iters(300000)) + "\n";
    source += "loop" + ws + ":\n";
    source += "        ldq   r3, " + std::to_string(w * 8) + "(r1)\n";
    source += "        addq  r3, 1, r3\n";
    source += "        stq   r3, " + std::to_string(w * 8) + "(r1)\n";
    // The address copy dual-issues with the store; the private load then
    // has a RAW hazard on r5 and must lead its own issue group, so the
    // sampler can arm on it (only group leaders are sampled).
    source += "        addq  r2, 0, r5\n";
    source += "        ldq   r4, " + std::to_string(w * 64) + "(r5)\n";
    source += "        addq  r4, r3, r4\n";
    source += "        stq   r4, " + std::to_string(w * 64) + "(r5)\n";
    source += "        subq  r20, 1, r20\n";
    source += "        bne   r20, loop" + ws + "\n";
    source += "        halt\n";
    source += "        .endp\n";
  }
  source += "        .data\n";
  source += "        .align 64\n";
  source += "shared_ctrs: .space 64\n";
  source += "        .align 64\n";
  source += "private_arr: .space " + std::to_string(num_cpus * 64) + "\n";
  Workload workload;
  workload.name = "false_sharing";
  workload.description =
      "one shared 64-byte line ping-ponged across CPUs at distinct offsets";
  workload.num_cpus = num_cpus;
  std::shared_ptr<ExecutableImage> image = Build("falseshare", source);
  for (uint32_t w = 0; w < num_cpus; ++w) {
    // Process creation order fixes pids 1..N, and the kernel's round-robin
    // queue assignment then lands exactly one worker per CPU.
    workload.processes.push_back(
        {"worker_" + std::to_string(w), {image}, "worker" + std::to_string(w)});
  }
  return workload;
}

std::vector<Workload> WorkloadFactory::Table2Suite() {
  std::vector<Workload> suite;
  suite.push_back(SpecIntLike());
  suite.push_back(SpecFpLike());
  suite.push_back(X11PerfLike());
  suite.push_back(McCalpin(StreamKernel::kCopy));
  suite.push_back(GccLike());
  suite.push_back(AltaVistaLike());
  suite.push_back(DssLike());
  suite.push_back(ParallelSpecFp());
  return suite;
}

}  // namespace dcpi
