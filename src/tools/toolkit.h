// Convenience glue used by the CLI tools, examples, and benchmarks:
// the shared CLI scaffolding (flag parsing, read-only database opening,
// epoch resolution, parallel image loading), gathering profile inputs from
// a live System, and running the full analyzer on a procedure with
// whatever event profiles are available.

#ifndef SRC_TOOLS_TOOLKIT_H_
#define SRC_TOOLS_TOOLKIT_H_

#include <memory>
#include <string>
#include <vector>

#include "src/analysis/analyzer.h"
#include "src/profiledb/fleet.h"
#include "src/sim/system.h"
#include "src/tools/dcpiprof.h"
#include "src/tools/dcpistats.h"

namespace dcpi {

// ---- Shared CLI scaffolding ----
//
// Every database-reading tool accepts the same epoch-selection and
// execution flags (dcpidiff takes its two epochs positionally instead):
//   --epoch N      analyze epoch N (repeatable)
//   --all-epochs   analyze every sealed epoch (every epoch if none is
//                  sealed yet)
//   --jobs N       workers per parallel step; 1 runs it on the caller
//                  (default: hardware concurrency; see ParallelFor)
//   --no-cache     disable the per-procedure analysis result cache
//   --fleet        treat the database path as a fleet root of host_<id>
//                  shards and merge across hosts on read
// With no epoch flag, a tool reads the latest sealed epoch (or the latest
// epoch of a fresh batch database). Databases are opened read-only, so a
// tool can run concurrently against a database a daemon is still writing.
// A plain database opens as a one-shard FleetView, so every tool reads a
// host and a fleet through the same calls and the same skip rule for an
// unreadable profile file (ProfileDatabase::ReadMerged); --fleet only
// changes what the view holds and how a tool shapes its output.

struct ToolOptions {
  int jobs = 0;
  bool use_cache = true;
  bool all_epochs = false;
  bool fleet = false;
  std::vector<uint32_t> epochs;  // explicit --epoch values, as given
};

// Parses the shared flag at argv[*arg] into `options`, advancing *arg past
// any consumed value. Returns 1 if the flag was consumed, 0 if it is not a
// shared flag (the tool handles it or rejects it), -1 if it is a shared
// flag with a missing or malformed value (print usage, exit 2).
int ParseToolFlag(int argc, char** argv, int* arg, ToolOptions* options);

struct ToolContext {
  // Every shard opened kReadOnly: the host_<id> shards of a --fleet root,
  // or the plain database as the one shard.
  FleetView view;
  std::vector<uint32_t> epochs;  // resolved, ascending, deduplicated
};

// Opens the database read-only and resolves the epoch set per the rules
// above: the one place a default set is chosen (AnalyzeDatabase and
// RunDcpicheck read an empty list as no epoch). Explicit --epoch values
// pass through even when the epoch does not exist (the missing profiles
// surface downstream); otherwise an empty database is an error. With options.fleet, `db_root` must contain at
// least one host_<id> shard and the epoch pool is the fleet-wide union.
Result<ToolContext> OpenToolDatabase(const std::string& db_root,
                                     const ToolOptions& options);

// Loads every image file in parallel (input order preserved); the first
// unreadable file fails the whole set.
Result<std::vector<std::shared_ptr<ExecutableImage>>> LoadImageSet(
    const std::vector<std::string>& paths, int jobs);

// Builds dcpiprof inputs for every image known to the kernel (including
// /vmunix) that has a CYCLES profile in the daemon.
std::vector<ProfInput> GatherProfInputs(System& system,
                                        EventType secondary = EventType::kImiss);

// Per-procedure CYCLES sample map (dcpistats input) for one run.
ProcedureSamples SamplesByProcedure(System& system);

// Runs the analyzer on `proc_name` in `image`, pulling the CYCLES profile
// and any monitored event profiles from the system's daemon.
Result<ProcedureAnalysis> AnalyzeFromSystem(System& system, const ExecutableImage& image,
                                            const std::string& proc_name,
                                            const AnalysisConfig& config = AnalysisConfig());

}  // namespace dcpi

#endif  // SRC_TOOLS_TOOLKIT_H_
