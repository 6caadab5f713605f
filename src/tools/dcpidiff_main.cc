// dcpidiff CLI: compares two epochs of a profile database for the same
// images (before/after an optimization or a behaviour change).
//
// Usage:
//   dcpidiff [--fleet] [--jobs N] <db_root> <epoch_before> <epoch_after>
//            <image_file>...
//
// The database opens read-only through the shared toolkit, as in every
// other reader tool, so dcpidiff may run against a database a daemon is
// still writing. With --fleet, <db_root> is a fleet root of host_<id>
// shards and each epoch's profiles are the fleet-wide merge-on-read
// aggregates, so the diff compares fleet behaviour before and after. The
// shared epoch flags (--epoch/--all-epochs) are rejected: dcpidiff's two
// epochs are positional and explicit, and are compared in the order given.

#include <cstdio>

#include "src/tools/dcpidiff.h"
#include "src/tools/toolkit.h"

namespace dcpi {
namespace {

Status Diff(const ToolRun& run) {
  ProfileGrid grid(run,
                   {{ProfileSet::kAllHosts, {run.epochs[0]}},
                    {ProfileSet::kAllHosts, {run.epochs[1]}}},
                   {EventType::kCycles});
  if (!grid.has_cycles()) return NoCyclesProfile(run);
  std::fputs(FormatDiff(DiffProcedures(ListProcedures(grid.Inputs(0)),
                                       ListProcedures(grid.Inputs(1))))
                 .c_str(),
             stdout);
  return Status::Ok();
}

}  // namespace
}  // namespace dcpi

int main(int argc, char** argv) {
  return dcpi::RunReaderTool(
      argc, argv,
      {.name = "dcpidiff", .diff_epochs = true, .body = dcpi::Diff});
}
