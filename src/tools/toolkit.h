// Convenience glue used by the CLI tools, examples, and benchmarks: the
// reader tools' one front end (flag parsing, read-only database opening,
// epoch resolution, image loading, the profile grid and the exit
// contract), gathering profile inputs from a live System, and running the
// full analyzer on a procedure with whatever event profiles are available.

#ifndef SRC_TOOLS_TOOLKIT_H_
#define SRC_TOOLS_TOOLKIT_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "src/analysis/analyzer.h"
#include "src/profiledb/fleet.h"
#include "src/sim/system.h"
#include "src/tools/dcpiprof.h"
#include "src/tools/dcpistats.h"

namespace dcpi {

// ---- The reader tools' front end ----
//
// Each database reader (dcpiprof, dcpistats, dcpicalc, dcpicheck,
// dcpidiff, dcpimem, dcpiannotate) is a ReaderTool descriptor plus a body;
// RunReaderTool does what they share. Shared flags:
//   --epoch N      read epoch N (repeatable)
//   --all-epochs   read every sealed epoch (every epoch if none is sealed
//                  yet)
//   --jobs N       workers per parallel step; 1 runs it on the caller
//                  (default: hardware concurrency; see ParallelFor)
//   --fleet        treat the database path as a fleet root of host_<id>
//                  shards and merge across hosts on read
//   --no-cache     disable the per-procedure analysis result cache (only
//                  the tools that have one: dcpicalc and dcpicheck)
// With no epoch flag, a tool reads the latest sealed epoch (or the latest
// epoch of a fresh batch database). Databases are opened read-only, so a
// tool can run concurrently against a database a daemon is still writing.
// A plain database opens as a one-shard FleetView, so every tool reads a
// host and a fleet through the same calls and the same skip rule for an
// unreadable profile file (ProfileDatabase::ReadMerged); --fleet only
// changes what the view holds and how a tool shapes its output.
//
// Exit contract: 0 on success; 2 on a usage error (a malformed or unknown
// flag, wrong positionals), checked before the database is opened; 1 on a
// data failure (missing database or image, no profiles, a failed
// analysis), whose Status the runner prints on stderr.

// What a tool's body gets once the runner has parsed, opened, resolved
// and loaded.
struct ToolRun {
  // Every shard opened kReadOnly: the host_<id> shards of a --fleet root,
  // or the plain database as the one shard.
  FleetView view;
  // Resolved, ascending and deduplicated; dcpidiff's two positional
  // epochs instead, in the order given.
  std::vector<uint32_t> epochs = {};
  std::vector<std::shared_ptr<ExecutableImage>> images = {};  // input order
  std::string trailing = {};  // ReaderTool::trailing's argument, if any
  int jobs = 0;
  bool use_cache = true;
  bool fleet = false;
};

// A designated initializer must give the members without a default,
// `name` and `body`, and may leave out the rest.
struct ReaderTool {
  const char* name;
  // The tool's own flags as the usage line shows them, e.g. "[-i]".
  const char* flags = "";
  // Parses one of the tool's own flags: `flag` is the argument, `value`
  // the one after it (null at the end). Returns how many arguments it
  // consumed, 0 if `flag` is not the tool's, or -1 for a malformed value.
  std::function<int(std::string_view flag, const char* value)> parse_flag = nullptr;
  // <db_root> <epoch_before> <epoch_after> <image_file>...: two positional
  // epochs replace the epoch flags (dcpidiff).
  bool diff_epochs = false;
  // When set, names the one argument after exactly one image (dcpicalc's
  // "<procedure>", dcpiannotate's "<source_file>").
  const char* trailing = nullptr;
  bool takes_no_cache = false;
  // No epoch flag reads every epoch instead of the latest (dcpistats).
  bool every_epoch_by_default = false;
  std::function<Status(const ToolRun&)> body;
};

// Parses the shared and the tool's own flags, checks the positionals,
// opens the database, resolves the epochs, loads the images (in parallel,
// input order kept; the first unreadable file fails the run) and calls the
// body. Returns the process exit code per the contract above.
int RunReaderTool(int argc, char** argv, const ReaderTool& tool);

// One set of a profile grid: one shard's profiles (`host`, an index into
// the view), or every shard's merged on read (kAllHosts), each folded over
// `epochs`.
struct ProfileSet {
  static constexpr size_t kAllHosts = SIZE_MAX;
  size_t host = kAllHosts;
  std::vector<uint32_t> epochs;
};

// Every event type, in EventType order.
inline const std::vector<EventType> kAllEvents = {EventType::kCycles, EventType::kImiss,
                                                  EventType::kDmiss, EventType::kBranchMp,
                                                  EventType::kDtbMiss};

// The profiles a tool reads: the constructor reads `events` for every
// (set, image) cell of run.images in one ParallelFor over run.jobs
// workers, each cell on one worker, so a one-set, one-image grid starts no
// thread. What a tool lists from it is byte-identical for any jobs count.
class ProfileGrid {
 public:
  ProfileGrid(const ToolRun& run, std::vector<ProfileSet> sets,
              const std::vector<EventType>& events = kAllEvents);

  // The (set, image) cell's profile of `event`; null if it was not read
  // or the database has none.
  const ImageProfile* at(size_t set, size_t image, EventType event) const;
  // dcpiprof inputs for one set: every image with a CYCLES profile, in
  // input order, with its IMISS profile (when read) as the secondary.
  std::vector<ProfInput> Inputs(size_t set) const;
  // False when no cell holds a CYCLES profile: see NoCyclesProfile.
  bool has_cycles() const;

 private:
  const ToolRun& run_;
  std::vector<std::optional<ImageProfile>> cells_;  // [set][image][event]
};

// The one no-profile rule: a reader with no CYCLES profile for any of its
// images in anything it read fails with this status.
Status NoCyclesProfile(const ToolRun& run);

// Loads every image file in parallel (input order preserved); the first
// unreadable file fails the whole set.
Result<std::vector<std::shared_ptr<ExecutableImage>>> LoadImageSet(
    const std::vector<std::string>& paths, int jobs);

// Builds dcpiprof inputs for every image known to the kernel (including
// /vmunix) that has a CYCLES profile in the daemon.
std::vector<ProfInput> GatherProfInputs(System& system,
                                        EventType secondary = EventType::kImiss);

// Per-procedure CYCLES sample map (one dcpistats sample set) of the inputs,
// or of one run's daemon.
ProcedureSamples SamplesByProcedure(const std::vector<ProfInput>& inputs);
ProcedureSamples SamplesByProcedure(System& system);

// Runs the analyzer on `proc_name` in `image`, pulling the CYCLES profile
// and any monitored event profiles from the system's daemon.
Result<ProcedureAnalysis> AnalyzeFromSystem(System& system, const ExecutableImage& image,
                                            const std::string& proc_name,
                                            const AnalysisConfig& config = AnalysisConfig());

}  // namespace dcpi

#endif  // SRC_TOOLS_TOOLKIT_H_
