// dcpiprof CLI: procedure/image listings from an on-disk profile database.
//
// Usage:
//   dcpiprof [-i] [--fleet] [--jobs N] [--epoch N]... [--all-epochs]
//            <db_root> <image_file>...
//
// With --fleet, <db_root> is a fleet root of host_<id> shard databases:
// the listing aggregates samples across every host (merge-on-read) and
// adds a by-host breakdown column, so fleet-wide hot procedures and the
// hosts responsible for them show up in one report.
//
// Each image_file is a serialized ExecutableImage (see dcpi_sim, which
// writes them next to the database). -i lists by image instead of by
// procedure. Epoch selection is shared with the other tools (toolkit.h):
// by default the latest sealed epoch is listed; --epoch N (repeatable)
// names epochs explicitly; --all-epochs merges every sealed epoch, which
// is safe to run while a daemon is still writing — the database is opened
// read-only and sealed epochs are immutable. Image and profile loads fan
// out over --jobs worker threads (default: hardware concurrency); the
// listing is assembled in input order, so output is byte-identical for any
// jobs count.

#include <cstdio>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "src/support/parallel_for.h"
#include "src/tools/dcpiprof.h"
#include "src/tools/toolkit.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: dcpiprof [-i] [--fleet] [--jobs N] [--epoch N]... "
               "[--all-epochs] <db_root> <image_file>...\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace dcpi;
  bool by_image = false;
  ToolOptions options;
  int arg = 1;
  while (arg < argc && argv[arg][0] == '-') {
    int shared = ParseToolFlag(argc, argv, &arg, &options);
    if (shared < 0) return Usage();
    if (shared == 0) {
      if (std::strcmp(argv[arg], "-i") == 0) {
        by_image = true;
      } else {
        std::fprintf(stderr, "unknown flag %s\n", argv[arg]);
        return 2;
      }
    }
    ++arg;
  }
  if (argc - arg < 2) return Usage();
  const std::string db_root = argv[arg];
  std::vector<std::string> image_paths(argv + arg + 1, argv + argc);

  Result<ToolContext> context = OpenToolDatabase(db_root, options);
  if (!context.ok()) {
    std::fprintf(stderr, "%s\n", context.status().ToString().c_str());
    return 1;
  }
  Result<std::vector<std::shared_ptr<ExecutableImage>>> images =
      LoadImageSet(image_paths, options.jobs);
  if (!images.ok()) {
    std::fprintf(stderr, "%s\n", images.status().ToString().c_str());
    return 1;
  }

  // One slot per (host, image) cell — a plain open is a 1-host grid.
  // Profiles merge across the resolved epochs in parallel and are
  // assembled in host-then-input order below (slots keep the profiles at
  // stable addresses), so output is byte-identical for any jobs count and
  // any shard enumeration order.
  const ToolContext& ctx = context.value();
  const size_t num_hosts = ctx.view.num_hosts();
  const size_t num_images = images.value().size();
  struct Slot {
    std::optional<ImageProfile> cycles, secondary;
  };
  std::vector<Slot> slots(num_hosts * num_images);
  ParallelFor(options.jobs, slots.size(), [&](size_t cell, int) {
    const ProfileDatabase& host = ctx.view.host(cell / num_images);
    const auto& image = images.value()[cell % num_images];
    Result<ImageProfile> cycles =
        host.ReadMerged(ctx.epochs, image->name(), EventType::kCycles);
    if (!cycles.ok()) return;  // image not profiled in these epochs
    slots[cell].cycles = std::move(cycles).value();
    Result<ImageProfile> imiss =
        host.ReadMerged(ctx.epochs, image->name(), EventType::kImiss);
    if (imiss.ok()) slots[cell].secondary = std::move(imiss).value();
  });

  std::vector<std::vector<ProfInput>> per_host(num_hosts);
  size_t profiled = 0;
  for (size_t h = 0; h < num_hosts; ++h) {
    for (size_t i = 0; i < num_images; ++i) {
      Slot& slot = slots[h * num_images + i];
      if (!slot.cycles.has_value()) continue;
      ProfInput input;
      input.image = images.value()[i];
      input.cycles = &*slot.cycles;
      if (slot.secondary.has_value()) input.secondary = &*slot.secondary;
      per_host[h].push_back(input);
      ++profiled;
    }
  }
  if (profiled == 0) {
    std::fprintf(stderr,
                 "no CYCLES profiles for the given images in the requested "
                 "epoch(s) of %s\n",
                 db_root.c_str());
    return 1;
  }
  if (by_image) {
    // ListImages sums duplicate image keys, so the flattened grid yields
    // fleet-wide image totals directly.
    std::vector<ProfInput> all;
    for (const std::vector<ProfInput>& host : per_host) {
      all.insert(all.end(), host.begin(), host.end());
    }
    std::fputs(FormatImageListing(ListImages(all)).c_str(), stdout);
  } else if (options.fleet) {
    std::fputs(FormatFleetProcedureListing(ListFleetProcedures(per_host),
                                           ctx.view.host_names(), "imiss")
                   .c_str(),
               stdout);
  } else {
    std::fputs(FormatProcedureListing(ListProcedures(per_host[0]), "imiss").c_str(),
               stdout);
  }
  return 0;
}
