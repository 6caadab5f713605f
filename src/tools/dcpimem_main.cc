// dcpimem CLI: memory-centric analysis of a profile database.
//
// Usage:
//   dcpimem [--top N] [--fleet] [--jobs N] [--epoch N]... [--all-epochs]
//           <db_root> <image_file>...
//
// Reads the wide-sample data-line axis (databases written with dcpi_sim
// --mem-fraction > 0) and prints the hottest data cache lines, per-data-
// object attribution, and false-sharing suspects. Epoch selection and
// --fleet behave exactly like the other reader tools (toolkit.h). Exits 1
// when the selected epochs hold no memory samples for the given images —
// a database collected without memory sampling is not an analysis result.

#include <cstdio>
#include <vector>

#include "src/support/parse.h"
#include "src/tools/dcpimem.h"
#include "src/tools/toolkit.h"

namespace dcpi {
namespace {

Status MemReportOf(const ToolRun& run, uint32_t top_n) {
  // Wide records are tagged with whichever event sampled them, so the
  // memory axes of every event's profile fold per image, and the rule for
  // an empty result is "no memory samples", not "no CYCLES profile".
  ProfileGrid grid(run, {{ProfileSet::kAllHosts, run.epochs}});
  std::vector<MemInput> inputs;
  for (size_t i = 0; i < run.images.size(); ++i) {
    for (EventType event : kAllEvents) {
      const ImageProfile* profile = grid.at(0, i, event);
      if (profile != nullptr && !profile->mem().empty()) {
        inputs.push_back({run.images[i], profile});
      }
    }
  }
  if (inputs.empty()) {
    return NotFound("no memory samples for the given image(s) in " + run.view.root() +
                    " (collect with dcpi_sim --mem-fraction > 0)");
  }
  std::fputs(FormatMemReport(BuildMemReport(inputs, top_n)).c_str(), stdout);
  return Status::Ok();
}

}  // namespace
}  // namespace dcpi

int main(int argc, char** argv) {
  uint32_t top_n = 20;
  return dcpi::RunReaderTool(
      argc, argv,
      {
          .name = "dcpimem",
          .flags = "[--top N]",
          .parse_flag = [&](std::string_view flag, const char* value) {
            if (flag != "--top") return 0;
            return value != nullptr && dcpi::ParseUint32(value, &top_n) && top_n > 0 ? 2 : -1;
          },
          .body = [&](const dcpi::ToolRun& run) { return dcpi::MemReportOf(run, top_n); },
      });
}
