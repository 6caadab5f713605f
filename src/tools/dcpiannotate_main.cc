// dcpiannotate CLI: annotates the assembly source an image was built from
// with per-line CYCLES sample counts (the paper's source-annotation tool).
//
// Usage:
//   dcpiannotate [--fleet] [--jobs N] [--epoch N]... [--all-epochs]
//                <db_root> <image_file> <source_file>
//
// Epoch selection and --fleet behave exactly like the other reader tools
// (toolkit.h): default is the latest sealed epoch, several epochs merge
// before annotation, and --fleet merges across host_<id> shards on read.

#include <cstdio>
#include <string>
#include <vector>

#include "src/support/binary_io.h"
#include "src/tools/dcpiannotate.h"
#include "src/tools/toolkit.h"

namespace dcpi {
namespace {

Status Annotate(const ToolRun& run) {
  // ReadFile rejects a directory, which an ifstream would open and read as
  // an empty source.
  std::vector<uint8_t> source;
  Status read = ReadFile(run.trailing, &source);
  if (!read.ok()) return read;
  ProfileGrid grid(run, {{ProfileSet::kAllHosts, run.epochs}}, {EventType::kCycles});
  if (!grid.has_cycles()) return NoCyclesProfile(run);
  std::fputs(FormatAnnotatedSource(*run.images[0], std::string(source.begin(), source.end()),
                                   *grid.at(0, 0, EventType::kCycles))
                 .c_str(),
             stdout);
  return Status::Ok();
}

}  // namespace
}  // namespace dcpi

int main(int argc, char** argv) {
  return dcpi::RunReaderTool(
      argc, argv,
      {.name = "dcpiannotate", .trailing = "<source_file>", .body = dcpi::Annotate});
}
