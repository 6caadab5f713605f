// dcpidiff CLI: compares two epochs of a profile database for the same
// images (before/after an optimization or a behaviour change).
//
// Usage:
//   dcpidiff [--fleet] [--jobs N] [--no-cache] <db_root> <epoch_before>
//            <epoch_after> <image_file>...
//
// The database opens read-only through the shared toolkit, as in every
// other reader tool, so dcpidiff may run against a database a daemon is
// still writing. With --fleet, <db_root> is a fleet root of host_<id>
// shards and each epoch's profiles are the fleet-wide merge-on-read
// aggregates, so the diff compares fleet behaviour before and after. The
// shared epoch flags (--epoch/--all-epochs) are rejected: dcpidiff's two
// epochs are positional and explicit.

#include <cstdio>
#include <deque>
#include <string>
#include <vector>

#include "src/isa/image_io.h"
#include "src/support/parse.h"
#include "src/tools/dcpidiff.h"
#include "src/tools/toolkit.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: dcpidiff [--fleet] [--jobs N] [--no-cache] <db_root> "
               "<epoch_before> <epoch_after> <image_file>...\n");
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
  // The two diffed epochs are positional; the shared epoch-set flags would
  // silently contradict them.
  if (options.all_epochs || !options.epochs.empty()) return Usage();
  if (argc - arg < 4) return Usage();
  uint32_t epoch_before = 0;
  uint32_t epoch_after = 0;
  if (!ParseUint32(argv[arg + 1], &epoch_before) ||
      !ParseUint32(argv[arg + 2], &epoch_after)) {
    std::fprintf(stderr, "malformed epoch '%s' / '%s'\n", argv[arg + 1],
                 argv[arg + 2]);
    return Usage();
  }

  // Explicit epochs pass through OpenToolDatabase even when they do not
  // exist; their missing profiles are skipped below.
  options.epochs = {epoch_before, epoch_after};
  Result<ToolContext> context = OpenToolDatabase(argv[arg], options);
  if (!context.ok()) {
    std::fprintf(stderr, "%s\n", context.status().ToString().c_str());
    return 1;
  }
  const FleetView& view = context.value().view;

  std::deque<ImageProfile> storage;
  std::vector<ProfInput> before_inputs, after_inputs;
  for (int i = arg + 3; i < argc; ++i) {
    Result<std::shared_ptr<ExecutableImage>> image = LoadImage(argv[i]);
    if (!image.ok()) {
      std::fprintf(stderr, "cannot load %s: %s\n", argv[i],
                   image.status().ToString().c_str());
      return 1;
    }
    const std::string& name = image.value()->name();
    Result<ImageProfile> before = view.ReadProfile({epoch_before}, name, EventType::kCycles);
    if (before.ok()) {
      storage.push_back(std::move(before.value()));
      before_inputs.push_back({image.value(), &storage.back(), nullptr});
    }
    Result<ImageProfile> after = view.ReadProfile({epoch_after}, name, EventType::kCycles);
    if (after.ok()) {
      storage.push_back(std::move(after.value()));
      after_inputs.push_back({image.value(), &storage.back(), nullptr});
    }
  }
  if (before_inputs.empty() && after_inputs.empty()) {
    std::fprintf(stderr,
                 "no CYCLES profiles for the given images in epoch %u or %u of %s\n",
                 epoch_before, epoch_after, argv[arg]);
    return 1;
  }
  std::vector<DiffRow> rows =
      DiffProcedures(ListProcedures(before_inputs), ListProcedures(after_inputs));
  std::fputs(FormatDiff(rows).c_str(), stdout);
  return 0;
}
