// dcpistats CLI: cross-epoch variance statistics. Each epoch of the
// profile database is one sample set (one run, or one epoch of a
// continuous run).
//
// Usage:
//   dcpistats [--fleet] [--jobs N] [--epoch N]... [--all-epochs]
//             <db_root> <image_file>...
//
// With --fleet, <db_root> is a fleet root of host_<id> shards and each
// *host* is one sample set (folded across the resolved epochs), so the
// report shows cross-host variance — which procedures burn cycles
// uniformly across the fleet and which are outliers on a few machines.
// At least two hosts must be present.
//
// By default every sealed epoch is a sample set (a fresh batch database
// with no seals uses every epoch); --epoch N (repeatable) names epochs
// explicitly. At least two epochs must resolve. The recovery-scan summary
// plus per-epoch file/sample/seal details are printed to stderr, so an
// operator can watch a continuous run's pipeline progress. Profile reads
// fan out over --jobs worker threads (default: hardware concurrency);
// sample sets are assembled in epoch order, so output is byte-identical
// for any jobs count.

#include <cstdio>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "src/support/parallel_for.h"
#include "src/tools/dcpiprof.h"
#include "src/tools/dcpistats.h"
#include "src/tools/toolkit.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: dcpistats [--fleet] [--jobs N] [--epoch N]... "
               "[--all-epochs] <db_root> <image_file>...\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace dcpi;
  ToolOptions options;
  int arg = 1;
  while (arg < argc && argv[arg][0] == '-') {
    int shared = ParseToolFlag(argc, argv, &arg, &options);
    if (shared < 0) return Usage();
    if (shared == 0) {
      std::fprintf(stderr, "unknown flag %s\n", argv[arg]);
      return 2;
    }
    ++arg;
  }
  if (argc - arg < 2) return Usage();
  const std::string db_root = argv[arg];
  std::vector<std::string> image_paths(argv + arg + 1, argv + argc);

  // Statistics want every epoch by default, not just the latest.
  if (options.epochs.empty()) options.all_epochs = true;
  Result<ToolContext> context = OpenToolDatabase(db_root, options);
  if (!context.ok()) {
    std::fprintf(stderr, "%s\n", context.status().ToString().c_str());
    return 1;
  }
  const ToolContext& ctx = context.value();
  if (!options.fleet) {
    const ScanReport& scan = ctx.view.host(0).scan_report();
    if (scan.files_checked > 0 || scan.files_quarantined > 0) {
      std::fprintf(stderr, "%s\n%s", scan.ToString().c_str(),
                   scan.DetailString().c_str());
    }
  }
  // One sample set per epoch normally; one per host with --fleet.
  const bool fleet = options.fleet;
  const size_t num_sets = fleet ? ctx.view.num_hosts() : ctx.epochs.size();
  if (num_sets < 2) {
    std::fprintf(stderr,
                 "dcpistats needs at least two %s to compare (resolved "
                 "%zu in %s)\n",
                 fleet ? "hosts" : "epochs", num_sets, db_root.c_str());
    return 1;
  }
  Result<std::vector<std::shared_ptr<ExecutableImage>>> images =
      LoadImageSet(image_paths, options.jobs);
  if (!images.ok()) {
    std::fprintf(stderr, "%s\n", images.status().ToString().c_str());
    return 1;
  }

  // Read every (set, image) CYCLES profile in parallel into a flat grid,
  // then fold into sample sets in order. A fleet cell folds one host
  // across every resolved epoch; a plain cell reads one epoch.
  const size_t num_images = images.value().size();
  std::vector<std::optional<ImageProfile>> grid(num_sets * num_images);
  ParallelFor(options.jobs, grid.size(), [&](size_t cell, int) {
    const auto& image = images.value()[cell % num_images];
    const size_t set = cell / num_images;
    const ProfileDatabase& host = ctx.view.host(fleet ? set : 0);
    Result<ImageProfile> cycles =
        host.ReadMerged(fleet ? ctx.epochs : std::vector<uint32_t>{ctx.epochs[set]},
                        image->name(), EventType::kCycles);
    if (cycles.ok()) grid[cell] = std::move(cycles).value();
  });

  std::vector<ProcedureSamples> sets;
  size_t profiles_read = 0;
  for (size_t e = 0; e < num_sets; ++e) {
    std::vector<ProfInput> inputs;
    for (size_t i = 0; i < num_images; ++i) {
      std::optional<ImageProfile>& cycles = grid[e * num_images + i];
      if (!cycles.has_value()) continue;
      inputs.push_back({images.value()[i], &*cycles, nullptr});
      ++profiles_read;
    }
    ProcedureSamples samples;
    for (const ProcedureRow& row : ListProcedures(inputs)) {
      samples[row.procedure] += row.cycles_samples;
    }
    sets.push_back(std::move(samples));
  }
  if (profiles_read == 0) {
    std::fprintf(stderr,
                 "no CYCLES profiles for the given images in any requested "
                 "epoch of %s\n",
                 db_root.c_str());
    return 1;
  }
  if (fleet) {
    std::fprintf(stdout, "fleet of %zu host(s), sample sets by host:", num_sets);
    for (const std::string& name : ctx.view.host_names()) {
      std::fprintf(stdout, " %s", name.c_str());
    }
    std::fprintf(stdout, "\n\n");
  }
  std::fputs(FormatStats(sets, ComputeStats(sets)).c_str(), stdout);
  return 0;
}
