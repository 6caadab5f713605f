// dcpicalc CLI: instruction-level analysis of one procedure.
//
// Usage:
//   dcpicalc [-s] [--selfcheck] [--fleet] [--jobs N] [--no-cache]
//            [--epoch N]... [--all-epochs] <db_root> <image_file> <procedure>
//
// With --fleet, <db_root> is a fleet root of host_<id> shards and the
// analyzed profile is the fleet-wide merge-on-read aggregate (cached under
// <fleet_root>/.cache).
//
// Prints the Figure 2 style annotated listing; -s prints the Figure 4
// style stall summary instead. --selfcheck additionally runs the src/check
// verification passes over the analysis and fails (exit 1) on violations.
// Epoch selection is shared with the other tools (toolkit.h): the default
// is the latest sealed epoch; with several epochs the profiles are merged
// before analysis. The analysis runs through the AnalysisEngine: results
// are cached content-addressed under <db_root>/epoch_<N>/.cache for a
// single epoch (or <db_root>/.cache for a merged set; --no-cache
// disables). --jobs is accepted like the other tools', but one image and
// one procedure leave nothing to run in parallel.

#include <cstdio>
#include <cstring>
#include <optional>
#include <string>

#include "src/analysis/engine.h"
#include "src/check/selfcheck.h"
#include "src/tools/dcpicalc.h"
#include "src/tools/toolkit.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: dcpicalc [-s] [--selfcheck] [--fleet] [--jobs N] "
               "[--no-cache] [--epoch N]... [--all-epochs] <db_root> "
               "<image_file> <procedure>\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace dcpi;
  bool summary = false;
  bool selfcheck = false;
  ToolOptions options;
  int arg = 1;
  while (arg < argc && argv[arg][0] == '-') {
    int shared = ParseToolFlag(argc, argv, &arg, &options);
    if (shared < 0) return Usage();
    if (shared == 0) {
      if (std::strcmp(argv[arg], "-s") == 0) {
        summary = true;
      } else if (std::strcmp(argv[arg], "--selfcheck") == 0) {
        selfcheck = true;
      } else {
        std::fprintf(stderr, "unknown flag %s\n", argv[arg]);
        return 2;
      }
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
  const ProcedureSymbol* proc = image->FindProcedureByName(argv[arg + 2]);
  if (proc == nullptr) {
    std::fprintf(stderr, "no procedure %s in %s\n", argv[arg + 2],
                 image->name().c_str());
    return 1;
  }
  Result<ImageProfile> cycles =
      ctx.view.ReadProfile(ctx.epochs, image->name(), EventType::kCycles);
  if (!cycles.ok()) {
    std::fprintf(stderr, "no cycles profile: %s\n", cycles.status().ToString().c_str());
    return 1;
  }
  AnalysisInput input;
  input.image = image;
  input.cycles = &cycles.value();
  // The other event profiles, as dcpicheck reads them, so both tools
  // analyze (and cache) the same inputs; a missing one stays null.
  std::optional<ImageProfile> events[kNumEventTypes];
  const ImageProfile** slots[kNumEventTypes] = {&input.cycles, &input.imiss, &input.dmiss,
                                                &input.branchmp, &input.dtbmiss};
  for (int e = 1; e < kNumEventTypes; ++e) {
    Result<ImageProfile> profile =
        ctx.view.ReadProfile(ctx.epochs, image->name(), static_cast<EventType>(e));
    if (!profile.ok()) continue;
    events[e] = std::move(profile).value();
    *slots[e] = &*events[e];
  }

  AnalysisConfig config;
  config.selfcheck = selfcheck;

  EngineOptions engine_options;
  engine_options.jobs = options.jobs;
  if (options.use_cache) {
    // A merged profile set gets its own cache namespace at the database
    // root (fleet merges always do — their profiles span hosts); the
    // content-addressed keys keep it disjoint per epoch set.
    engine_options.cache_dir = !options.fleet && ctx.epochs.size() == 1
                                   ? ctx.view.host(0).EpochCacheDir(ctx.epochs[0])
                                   : db_root + "/.cache";
  }
  engine_options.analyze = AnalyzeProcedureChecked;
  AnalysisEngine engine(std::move(engine_options));

  ProcedureResult result = engine.AnalyzeOne(input, *proc, config);
  if (!result.status.ok()) {
    std::fprintf(stderr, "analysis failed: %s\n", result.status.ToString().c_str());
    return 1;
  }
  const ProcedureAnalysis& analysis = result.analysis;
  if (summary) {
    std::fputs(FormatStallSummary(analysis).c_str(), stdout);
  } else {
    std::fputs(FormatCalcListing(*image, analysis).c_str(), stdout);
  }
  if (selfcheck) {
    const CheckReport& report = analysis.selfcheck_report;
    if (!report.empty()) std::fputs(report.ToString().c_str(), stderr);
    if (!report.ok()) return 1;
  }
  return 0;
}
