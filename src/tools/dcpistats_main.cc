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
// explicitly. At least two epochs must resolve. Profile reads fan out over
// --jobs worker threads (default: hardware concurrency); sample sets are
// assembled in epoch order, so output is byte-identical for any jobs count.

#include <cstdio>
#include <string>
#include <vector>

#include "src/tools/dcpistats.h"
#include "src/tools/toolkit.h"

namespace dcpi {
namespace {

Status Stats(const ToolRun& run) {
  // One sample set per epoch normally; one per host, folded across the
  // epochs, with --fleet.
  std::vector<ProfileSet> sets;
  if (run.fleet) {
    for (size_t h = 0; h < run.view.num_hosts(); ++h) sets.push_back({h, run.epochs});
  } else {
    for (uint32_t epoch : run.epochs) sets.push_back({0, {epoch}});
  }
  if (sets.size() < 2) {
    return FailedPrecondition(std::string("needs at least two ") +
                              (run.fleet ? "hosts" : "epochs") + " to compare (resolved " +
                              std::to_string(sets.size()) + " in " + run.view.root() + ")");
  }
  ProfileGrid grid(run, sets, {EventType::kCycles});
  if (!grid.has_cycles()) return NoCyclesProfile(run);
  std::vector<ProcedureSamples> samples;
  for (size_t s = 0; s < sets.size(); ++s) samples.push_back(SamplesByProcedure(grid.Inputs(s)));
  if (run.fleet) {
    std::fprintf(stdout, "fleet of %zu host(s), sample sets by host:", sets.size());
    for (const std::string& name : run.view.host_names()) {
      std::fprintf(stdout, " %s", name.c_str());
    }
    std::fprintf(stdout, "\n\n");
  }
  std::fputs(FormatStats(samples, ComputeStats(samples)).c_str(), stdout);
  return Status::Ok();
}

}  // namespace
}  // namespace dcpi

int main(int argc, char** argv) {
  return dcpi::RunReaderTool(
      argc, argv,
      {.name = "dcpistats", .every_epoch_by_default = true, .body = dcpi::Stats});
}
