// Profile-guided code layout (the Section 7 / Spike-OM consumer).
//
// The paper's stated purpose for DCPI profiles is to feed optimizers —
// "work is underway to feed the output of our tools into ... the Spike/OM
// post-linker optimization framework". This module implements the classic
// post-link transformation those frameworks start with: reordering
// procedures by profile hotness so the hot set packs into the I-cache
// instead of colliding in it, aligning hot procedure entries to cache
// lines.
//
// The rewriter relocates whole procedures rigidly and fixes up:
//   * branch-format displacements whose target moved (calls and branches
//     across procedures);
//   * ldah/lda pairs that materialize absolute addresses inside this
//     image's text (computed jumps).
// Data addresses and cross-image references are position-independent under
// this transformation and need no fixups.

#ifndef SRC_OPTIMIZE_LAYOUT_H_
#define SRC_OPTIMIZE_LAYOUT_H_

#include <memory>

#include "src/isa/image.h"
#include "src/profiledb/profile.h"

namespace dcpi {

// Returns a new image (same name + ".hot", same text_base) with procedures
// ordered by decreasing CYCLES samples, each procedure carrying more than
// 1% of the samples aligned to an I-cache line of the simulated machine.
// Instructions outside any procedure keep their relative order after all
// procedures.
Result<std::shared_ptr<ExecutableImage>> ReorderProceduresByHotness(
    const ExecutableImage& image, const ImageProfile& cycles);

}  // namespace dcpi

#endif  // SRC_OPTIMIZE_LAYOUT_H_
