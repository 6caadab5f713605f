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
// cache under <db_root>/epoch_<N>/.cache. The procedures of every checked
// epoch fan out once over --jobs worker threads (default: hardware
// concurrency); the report is byte-identical for any jobs count and cold
// or warm cache. Exits 0 when no errors were found, 1 on violations,
// unreadable inputs or when nothing was analyzed (no image has a CYCLES
// profile in any checked epoch of any shard), 2 on usage errors. An image
// or a shard without a checked epoch's profile, while something else was
// analyzed, is a warning.

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "src/check/dcpicheck.h"
#include "src/tools/toolkit.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: dcpicheck [--fleet] [--jobs N] [--no-cache] "
               "[--epoch N]... [--all-epochs] <db_root> <image_file>...\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace dcpi;
  ToolOptions tool_options;
  int arg = 1;
  while (arg < argc && argv[arg][0] == '-') {
    int shared = ParseToolFlag(argc, argv, &arg, &tool_options);
    if (shared < 0) return Usage();
    if (shared == 0) {
      std::fprintf(stderr, "unknown flag %s\n", argv[arg]);
      return 2;
    }
    ++arg;
  }
  if (argc - arg < 2) return Usage();
  const std::string db_root = argv[arg];

  Result<ToolContext> context = OpenToolDatabase(db_root, tool_options);
  if (!context.ok()) {
    std::fprintf(stderr, "%s\n", context.status().ToString().c_str());
    return 1;
  }

  DcpicheckOptions options;
  options.jobs = tool_options.jobs;
  options.use_cache = tool_options.use_cache;
  for (int i = arg + 1; i < argc; ++i) options.image_files.push_back(argv[i]);

  // Check every shard independently: a fleet is healthy only when each
  // host's database passes on its own. A plain database is the one shard.
  const ToolContext& ctx = context.value();
  bool all_ok = true;
  size_t analyzed = 0;  // (image, epoch) pairs analyzed, over every shard
  for (size_t h = 0; h < ctx.view.num_hosts(); ++h) {
    const ProfileDatabase& host = ctx.view.host(h);
    DcpicheckOptions host_options = options;
    host_options.db_root = host.root();
    host_options.epochs = ctx.epochs;
    if (tool_options.fleet) {
      // Only the epochs this shard actually has: the fleet-wide epoch
      // union may be sparse per host, and an empty list checks none.
      std::vector<uint32_t> have = host.ListEpochs();
      std::erase_if(host_options.epochs, [&](uint32_t epoch) {
        return std::find(have.begin(), have.end(), epoch) == have.end();
      });
      std::fprintf(stdout, "=== %s ===\n", ctx.view.host_names()[h].c_str());
    }
    size_t host_analyzed = 0;
    CheckReport report = RunDcpicheck(host_options, &host_analyzed);
    std::fputs(report.ToString().c_str(), stdout);
    all_ok = all_ok && report.ok();
    analyzed += host_analyzed;
  }
  if (all_ok && analyzed == 0) {
    std::fprintf(stderr, "no image has a CYCLES profile in the checked epochs\n");
    return 1;
  }
  return all_ok ? 0 : 1;
}
