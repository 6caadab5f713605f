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
// are cached per procedure under <db_root>/epoch_<N>/.cache for a single
// epoch (or <db_root>/.cache for a merged set; --no-cache disables). One
// image and one procedure leave nothing to run in parallel, so no thread
// starts whatever --jobs says.

#include <cstdio>
#include <string>

#include "src/analysis/engine.h"
#include "src/check/selfcheck.h"
#include "src/tools/dcpicalc.h"
#include "src/tools/toolkit.h"

namespace dcpi {
namespace {

Status Calc(const ToolRun& run, bool summary, bool selfcheck) {
  const std::shared_ptr<ExecutableImage>& image = run.images[0];
  const ProcedureSymbol* proc = image->FindProcedureByName(run.trailing);
  if (proc == nullptr) return NotFound("no procedure " + run.trailing + " in " + image->name());
  // Every event profile, as dcpicheck reads them, so both tools analyze
  // (and cache) the same inputs; a missing one stays null.
  ProfileGrid grid(run, {{ProfileSet::kAllHosts, run.epochs}});
  if (!grid.has_cycles()) return NoCyclesProfile(run);
  const AnalysisInput input{
      .image = image,
      .cycles = grid.at(0, 0, EventType::kCycles),
      .imiss = grid.at(0, 0, EventType::kImiss),
      .dmiss = grid.at(0, 0, EventType::kDmiss),
      .branchmp = grid.at(0, 0, EventType::kBranchMp),
      .dtbmiss = grid.at(0, 0, EventType::kDtbMiss),
  };

  EngineOptions engine_options;
  engine_options.jobs = run.jobs;
  if (run.use_cache) {
    // A merged profile set gets its own cache at the database root (fleet
    // merges always do — their profiles span hosts). Every epoch set
    // shares its one slot per procedure: the key never serves one set the
    // analysis of another, and switching sets recomputes.
    engine_options.cache_dir = !run.fleet && run.epochs.size() == 1
                                   ? run.view.host(0).EpochCacheDir(run.epochs[0])
                                   : run.view.root() + "/.cache";
  }
  engine_options.analyze = AnalyzeProcedureChecked;
  AnalysisEngine engine(std::move(engine_options));
  AnalysisConfig config;
  config.selfcheck = selfcheck;
  ProcedureResult result = engine.AnalyzeOne(input, *proc, config);
  if (!result.status.ok()) return result.status;
  const ProcedureAnalysis& analysis = result.analysis;
  std::fputs((summary ? FormatStallSummary(analysis) : FormatCalcListing(*image, analysis))
                 .c_str(),
             stdout);
  if (!selfcheck) return Status::Ok();
  const CheckReport& report = analysis.selfcheck_report;
  if (!report.empty()) std::fputs(report.ToString().c_str(), stderr);
  return report.ok() ? Status::Ok() : FailedPrecondition("--selfcheck found violations");
}

}  // namespace
}  // namespace dcpi

int main(int argc, char** argv) {
  bool summary = false;
  bool selfcheck = false;
  return dcpi::RunReaderTool(
      argc, argv,
      {
          .name = "dcpicalc",
          .flags = "[-s] [--selfcheck]",
          .parse_flag = [&](std::string_view flag, const char*) {
            if (flag == "-s") {
              summary = true;
            } else if (flag == "--selfcheck") {
              selfcheck = true;
            } else {
              return 0;
            }
            return 1;
          },
          .trailing = "<procedure>",
          .takes_no_cache = true,
          .body = [&](const dcpi::ToolRun& run) { return dcpi::Calc(run, summary, selfcheck); },
      });
}
