// dcpimem CLI: memory-centric analysis of a profile database.
//
// Usage:
//   dcpimem [--fleet] [--jobs N] [--no-cache] [--epoch N]... [--all-epochs]
//           [--top N] <db_root> <image_file>...
//
// Reads the wide-sample data-line axis (databases written with dcpi_sim
// --mem-fraction > 0) and prints the hottest data cache lines, per-data-
// object attribution, and false-sharing suspects. Epoch selection and
// --fleet behave exactly like the other reader tools (toolkit.h). Exits 1
// when the selected epochs hold no memory samples for the given images —
// a database collected without memory sampling is not an analysis result.

#include <cstdio>
#include <cstring>
#include <deque>
#include <string>
#include <vector>

#include "src/support/parse.h"
#include "src/tools/dcpimem.h"
#include "src/tools/toolkit.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: dcpimem [--fleet] [--jobs N] [--no-cache] [--epoch N]... "
               "[--all-epochs] [--top N] <db_root> <image_file>...\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace dcpi;
  ToolOptions options;
  uint32_t top_n = 20;
  int arg = 1;
  while (arg < argc && argv[arg][0] == '-') {
    int shared = ParseToolFlag(argc, argv, &arg, &options);
    if (shared < 0) return Usage();
    if (shared == 0) {
      if (std::strcmp(argv[arg], "--top") == 0 && arg + 1 < argc) {
        if (!ParseUint32(argv[++arg], &top_n) || top_n == 0) return Usage();
      } else {
        std::fprintf(stderr, "unknown flag %s\n", argv[arg]);
        return 2;
      }
    }
    ++arg;
  }
  if (argc - arg < 2) return Usage();
  const std::string db_root = argv[arg];

  Result<ToolContext> context = OpenToolDatabase(db_root, options);
  if (!context.ok()) {
    std::fprintf(stderr, "%s\n", context.status().ToString().c_str());
    return 1;
  }
  const ToolContext& ctx = context.value();

  std::vector<std::string> image_paths;
  for (int i = arg + 1; i < argc; ++i) image_paths.push_back(argv[i]);
  Result<std::vector<std::shared_ptr<ExecutableImage>>> images =
      LoadImageSet(image_paths, options.jobs);
  if (!images.ok()) {
    std::fprintf(stderr, "%s\n", images.status().ToString().c_str());
    return 1;
  }

  // Wide records are tagged with whichever event sampled them, so fold the
  // memory axes of every event's profile per image.
  std::deque<ImageProfile> storage;
  std::vector<MemInput> inputs;
  for (const std::shared_ptr<ExecutableImage>& image : images.value()) {
    for (int e = 0; e < kNumEventTypes; ++e) {
      Result<ImageProfile> profile =
          ctx.view.ReadProfile(ctx.epochs, image->name(), static_cast<EventType>(e));
      if (!profile.ok() || profile.value().mem().empty()) continue;
      storage.push_back(std::move(profile.value()));
      inputs.push_back({image, &storage.back()});
    }
  }
  if (inputs.empty()) {
    std::fprintf(stderr,
                 "no memory samples for the given image(s) in %s "
                 "(collect with dcpi_sim --mem-fraction > 0)\n",
                 db_root.c_str());
    return 1;
  }

  MemReport report = BuildMemReport(inputs, top_n);
  std::fputs(FormatMemReport(report).c_str(), stdout);
  return 0;
}
