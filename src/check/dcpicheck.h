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
#include <memory>
#include <string>
#include <vector>

#include "src/analysis/analyzer.h"
#include "src/check/check.h"
#include "src/check/image_lint.h"
#include "src/profiledb/database.h"

namespace dcpi {

struct DcpicheckOptions {
  // The database and image files RunDcpicheck opens and loads;
  // CheckDatabase takes them opened and loaded instead.
  std::string db_root;
  std::vector<std::string> image_files;
  // Epochs to check, ascending. Empty checks none: the report then holds
  // the lint findings and one warning. The dcpicheck tool resolves the
  // default set (RunReaderTool, src/tools/toolkit.h) and, under --fleet,
  // passes each host the requested epochs it has.
  std::vector<uint32_t> epochs;
  ImageLintOptions lint;
  AnalysisConfig analysis;
  // Analysis-engine knobs: worker threads (<1 = hardware concurrency) and
  // the per-procedure result cache under <db>/epoch_<N>/.cache. The report
  // is byte-identical for any jobs count and for cold/warm cache.
  int jobs = 0;
  bool use_cache = true;
};

// Opens options.db_root read-only, loads options.image_files (a file that
// does not load is an error in the report, in its place) and runs
// CheckDatabase. When `analyzed_pairs` is not null it receives how many
// (image, epoch) pairs had a CYCLES profile and were analyzed; 0 means the
// passes ran nowhere.
CheckReport RunDcpicheck(const DcpicheckOptions& options,
                         size_t* analyzed_pairs = nullptr);

// The check over a database the caller opened and image files it loaded:
// `images` holds each file's load result in input order, and a failed
// load's message is reported in its place. The dcpicheck tool opens and
// loads once and calls this per shard; options.db_root and
// options.image_files are not read.
CheckReport CheckDatabase(
    const ProfileDatabase& db,
    const std::vector<Result<std::shared_ptr<ExecutableImage>>>& images,
    const DcpicheckOptions& options, size_t* analyzed_pairs = nullptr);

}  // namespace dcpi

#endif  // SRC_CHECK_DCPICHECK_H_
