// dcpicheck CLI: static verification of a profile database + image set.
//
// Usage:
//   dcpicheck [--fleet] [--jobs N] [--no-cache] [--epoch N]...
//             [--all-epochs] <db_root> <image_file>...
//
// With --fleet, <db_root> is a fleet root of host_<id> shards; every shard
// is checked independently (each under a "=== host_<id> ===" header, each
// with its own result cache) and the exit code reflects the worst shard —
// one corrupt host fails the fleet check. A shard is checked over the
// selected epochs it has; one with none of them gets its image lint and a
// warning.
//
// Runs all five verification passes (image lint, CFG structure,
// differential cycle equivalence, flow conservation, schedule invariants)
// and prints a structured report. Epoch selection is shared with the other
// tools (toolkit.h): by default the latest sealed epoch is checked;
// --all-epochs checks every sealed epoch, each through its own result
// cache under <db_root>/epoch_<N>/.cache. The database is opened and the
// images are loaded once, for every shard; the procedures of every checked
// epoch of a shard fan out once over --jobs worker threads (default:
// hardware concurrency), and the report is byte-identical for any jobs
// count and cold or warm cache. Exits 0 when no errors were found, 1 on
// violations, unreadable inputs or when nothing was analyzed (no image has
// a CYCLES profile in any checked epoch of any shard), 2 on usage errors.
// An image or a shard without a checked epoch's profile, while something
// else was analyzed, is a warning.

#include <algorithm>
#include <cstdio>
#include <vector>

#include "src/check/dcpicheck.h"
#include "src/tools/toolkit.h"

namespace dcpi {
namespace {

Status Check(const ToolRun& run) {
  DcpicheckOptions options;
  options.jobs = run.jobs;
  options.use_cache = run.use_cache;
  const std::vector<Result<std::shared_ptr<ExecutableImage>>> images(run.images.begin(),
                                                                     run.images.end());
  // Check every shard independently: a fleet is healthy only when each
  // host's database passes on its own. A plain database is the one shard.
  bool all_ok = true;
  size_t analyzed = 0;  // (image, epoch) pairs analyzed, over every shard
  for (size_t h = 0; h < run.view.num_hosts(); ++h) {
    const ProfileDatabase& host = run.view.host(h);
    options.epochs = run.epochs;
    if (run.fleet) {
      // Only the epochs this shard actually has: the fleet-wide epoch
      // union may be sparse per host, and an empty list checks none.
      std::vector<uint32_t> have = host.ListEpochs();
      std::erase_if(options.epochs, [&](uint32_t epoch) {
        return std::find(have.begin(), have.end(), epoch) == have.end();
      });
      std::fprintf(stdout, "=== %s ===\n", run.view.host_names()[h].c_str());
    }
    size_t host_analyzed = 0;
    CheckReport report = CheckDatabase(host, images, options, &host_analyzed);
    std::fputs(report.ToString().c_str(), stdout);
    all_ok = all_ok && report.ok();
    analyzed += host_analyzed;
  }
  if (!all_ok) return FailedPrecondition("the check found errors");
  return analyzed == 0 ? NoCyclesProfile(run) : Status::Ok();
}

}  // namespace
}  // namespace dcpi

int main(int argc, char** argv) {
  return dcpi::RunReaderTool(
      argc, argv,
      {.name = "dcpicheck", .takes_no_cache = true, .body = dcpi::Check});
}
