// dcpiannotate CLI: annotates the assembly source an image was built from
// with per-line CYCLES sample counts (the paper's source-annotation tool).
//
// Usage:
//   dcpiannotate [--fleet] [--jobs N] [--no-cache] [--epoch N]...
//                [--all-epochs] <db_root> <image_file> <source_file>
//
// Epoch selection and --fleet behave exactly like the other reader tools
// (toolkit.h): default is the latest sealed epoch, several epochs merge
// before annotation, and --fleet merges across host_<id> shards on read.

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "src/tools/dcpiannotate.h"
#include "src/tools/toolkit.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: dcpiannotate [--fleet] [--jobs N] [--no-cache] "
               "[--epoch N]... [--all-epochs] <db_root> <image_file> "
               "<source_file>\n");
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
  if (argc - arg < 3) return Usage();
  const std::string db_root = argv[arg];

  Result<ToolContext> context = OpenToolDatabase(db_root, options);
  if (!context.ok()) {
    std::fprintf(stderr, "%s\n", context.status().ToString().c_str());
    return 1;
  }
  const ToolContext& ctx = context.value();

  Result<std::vector<std::shared_ptr<ExecutableImage>>> images =
      LoadImageSet({argv[arg + 1]}, options.jobs);
  if (!images.ok()) {
    std::fprintf(stderr, "%s\n", images.status().ToString().c_str());
    return 1;
  }
  const std::shared_ptr<ExecutableImage>& image = images.value()[0];

  std::ifstream source_file(argv[arg + 2]);
  if (!source_file) {
    std::fprintf(stderr, "cannot read source file %s\n", argv[arg + 2]);
    return 1;
  }
  std::ostringstream source;
  source << source_file.rdbuf();

  Result<ImageProfile> cycles =
      ctx.view.ReadProfile(ctx.epochs, image->name(), EventType::kCycles);
  if (!cycles.ok()) {
    std::fprintf(stderr, "no cycles profile: %s\n",
                 cycles.status().ToString().c_str());
    return 1;
  }
  std::fputs(FormatAnnotatedSource(*image, source.str(), cycles.value()).c_str(),
             stdout);
  return 0;
}
