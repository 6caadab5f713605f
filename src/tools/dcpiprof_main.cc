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
#include <vector>

#include "src/tools/dcpiprof.h"
#include "src/tools/toolkit.h"

namespace dcpi {
namespace {

Status ListProfile(const ToolRun& run, bool by_image) {
  // One set per host, each folded across the resolved epochs; a plain
  // database is a one-host grid.
  std::vector<ProfileSet> sets;
  for (size_t h = 0; h < run.view.num_hosts(); ++h) sets.push_back({h, run.epochs});
  ProfileGrid grid(run, std::move(sets), {EventType::kCycles, EventType::kImiss});
  if (!grid.has_cycles()) return NoCyclesProfile(run);
  std::vector<std::vector<ProfInput>> per_host;
  for (size_t h = 0; h < run.view.num_hosts(); ++h) per_host.push_back(grid.Inputs(h));
  if (by_image) {
    // ListImages sums duplicate image keys, so the flattened grid yields
    // fleet-wide image totals directly.
    std::vector<ProfInput> all;
    for (const auto& host : per_host) all.insert(all.end(), host.begin(), host.end());
    std::fputs(FormatImageListing(ListImages(all)).c_str(), stdout);
  } else if (run.fleet) {
    std::fputs(FormatFleetProcedureListing(ListFleetProcedures(per_host),
                                           run.view.host_names(), "imiss")
                   .c_str(),
               stdout);
  } else {
    std::fputs(FormatProcedureListing(ListProcedures(per_host[0]), "imiss").c_str(),
               stdout);
  }
  return Status::Ok();
}

}  // namespace
}  // namespace dcpi

int main(int argc, char** argv) {
  bool by_image = false;
  return dcpi::RunReaderTool(
      argc, argv,
      {
          .name = "dcpiprof",
          .flags = "[-i]",
          .parse_flag = [&](std::string_view flag, const char*) {
            if (flag != "-i") return 0;
            by_image = true;
            return 1;
          },
          .body = [&](const dcpi::ToolRun& run) { return dcpi::ListProfile(run, by_image); },
      });
}
