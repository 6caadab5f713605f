// dcpicheck driver: all five verification passes over a profile database
// and an image set — the static-analysis counterpart of dcpiprof/dcpicalc.
//
// For every image: pass 1 (image lint) runs once, unconditionally; then
// for every checked epoch that has a CYCLES profile for the image, every
// procedure is analyzed and passes 2-5 (CFG structure, differential cycle
// equivalence, flow conservation, schedule invariants) run over the
// analysis. The report collects every violation; callers exit non-zero
// when report.ok() is false, or when nothing was analyzed at all.

#ifndef SRC_CHECK_DCPICHECK_H_
#define SRC_CHECK_DCPICHECK_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "src/analysis/analyzer.h"
#include "src/check/check.h"
#include "src/check/image_lint.h"

namespace dcpi {

struct DcpicheckOptions {
  std::string db_root;
  // Epochs to check, ascending. Empty checks none: the report then holds
  // the lint findings and one warning. The CLI resolves the default set
  // (OpenToolDatabase) and, under --fleet, passes each host the requested
  // epochs it has.
  std::vector<uint32_t> epochs;
  std::vector<std::string> image_files;
  ImageLintOptions lint;
  AnalysisConfig analysis;
  // Analysis-engine knobs: worker threads (<1 = hardware concurrency) and
  // the per-procedure result cache under <db>/epoch_<N>/.cache. The report
  // is byte-identical for any jobs count and for cold/warm cache.
  int jobs = 0;
  bool use_cache = true;
};

// When `analyzed_pairs` is not null it receives how many (image, epoch) pairs
// had a CYCLES profile and were analyzed; 0 means the passes ran nowhere.
CheckReport RunDcpicheck(const DcpicheckOptions& options,
                         size_t* analyzed_pairs = nullptr);

}  // namespace dcpi

#endif  // SRC_CHECK_DCPICHECK_H_
