#include "src/tools/toolkit.h"

#include <algorithm>
#include <climits>
#include <cstdio>

#include "src/check/selfcheck.h"
#include "src/isa/image_io.h"
#include "src/support/parse.h"
#include "src/support/parallel_for.h"

namespace dcpi {

namespace {

// The shared flags as given.
struct ToolOptions {
  int jobs = 0;
  bool use_cache = true;
  bool all_epochs = false;
  bool fleet = false;
  std::vector<uint32_t> epochs;  // explicit --epoch values, as given
};

// Parses the shared flag `flag` (`value` is the argument after it, null at
// the end) into `options`. Returns how many arguments it consumed, 0 if it
// is not one of `tool`'s shared flags, -1 for a missing or malformed value.
int ParseToolFlag(const ReaderTool& tool, std::string_view flag, const char* value,
                  ToolOptions* options) {
  uint32_t number = 0;
  if (flag == "--all-epochs") {
    options->all_epochs = true;
    return 1;
  }
  if (flag == "--fleet") {
    options->fleet = true;
    return 1;
  }
  if (flag == "--no-cache" && tool.takes_no_cache) {
    options->use_cache = false;
    return 1;
  }
  if (flag == "--jobs") {
    if (value == nullptr || !ParseUint32(value, &number) || number > INT_MAX) return -1;
    options->jobs = static_cast<int>(number);
    return 2;
  }
  if (flag == "--epoch") {
    if (value == nullptr || !ParseUint32(value, &number)) return -1;
    options->epochs.push_back(number);
    return 2;
  }
  return 0;
}

std::string UsageLine(const ReaderTool& tool) {
  std::string usage = std::string("usage: ") + tool.name;
  if (*tool.flags != '\0') usage += std::string(" ") + tool.flags;
  usage += " [--fleet] [--jobs N]";
  if (tool.takes_no_cache) usage += " [--no-cache]";
  if (!tool.diff_epochs) usage += " [--epoch N]... [--all-epochs]";
  usage += tool.diff_epochs ? " <db_root> <epoch_before> <epoch_after>" : " <db_root>";
  usage += tool.trailing != nullptr ? std::string(" <image_file> ") + tool.trailing
                                    : std::string(" <image_file>...");
  return usage;
}

// Opens the database read-only and resolves the epoch set per the rules in
// toolkit.h: the one place a default set is chosen (AnalyzeDatabase and
// RunDcpicheck read an empty list as no epoch). Explicit epochs pass
// through even when the epoch does not exist (the missing profiles surface
// downstream); otherwise an empty database is an error. With --fleet the
// root must hold at least one host_<id> shard, and the epoch pool is the
// fleet-wide union.
Result<ToolRun> OpenToolDatabase(const std::string& db_root, const ToolOptions& options) {
  ToolRun run{
      .view = options.fleet ? FleetView(db_root) : FleetView::SingleShard(db_root),
      .jobs = options.jobs,
      .use_cache = options.use_cache,
      .fleet = options.fleet,
  };
  if (run.view.num_hosts() == 0) {
    return NotFound("no host_<id> shards under fleet root " + db_root);
  }
  if (!options.epochs.empty()) {
    run.epochs = options.epochs;
    std::sort(run.epochs.begin(), run.epochs.end());
    run.epochs.erase(std::unique(run.epochs.begin(), run.epochs.end()), run.epochs.end());
    return run;
  }
  std::vector<uint32_t> pool = run.view.ListSealedEpochs();
  if (pool.empty()) pool = run.view.ListEpochs();
  if (pool.empty()) return NotFound("no epochs in profile database " + db_root);
  run.epochs = options.all_epochs ? std::move(pool) : std::vector<uint32_t>{pool.back()};
  return run;
}

}  // namespace

int RunReaderTool(int argc, char** argv, const ReaderTool& tool) {
  auto usage_error = [&] {
    std::fprintf(stderr, "%s\n", UsageLine(tool).c_str());
    return 2;
  };
  auto data_failure = [&](const Status& status) {
    std::fprintf(stderr, "%s: %s\n", tool.name, status.ToString().c_str());
    return 1;
  };
  ToolOptions options;
  int arg = 1;
  while (arg < argc && argv[arg][0] == '-') {
    const char* value = arg + 1 < argc ? argv[arg + 1] : nullptr;
    int used = ParseToolFlag(tool, argv[arg], value, &options);
    if (used == 0 && tool.parse_flag) used = tool.parse_flag(argv[arg], value);
    if (used == 0) std::fprintf(stderr, "unknown flag %s\n", argv[arg]);
    if (used <= 0) return usage_error();
    arg += used;
  }
  // <db_root>, dcpidiff's two epochs, the images, the trailing argument.
  const int first_image = arg + (tool.diff_epochs ? 3 : 1);
  const int num_images = argc - first_image - (tool.trailing != nullptr ? 1 : 0);
  if (num_images < 1 || (tool.trailing != nullptr && num_images != 1)) return usage_error();
  std::vector<uint32_t> diff_epochs(2);
  if (tool.diff_epochs) {
    // The shared epoch-set flags would silently contradict the two
    // positional epochs.
    if (options.all_epochs || !options.epochs.empty() ||
        !ParseUint32(argv[arg + 1], &diff_epochs[0]) ||
        !ParseUint32(argv[arg + 2], &diff_epochs[1])) {
      return usage_error();
    }
    options.epochs = diff_epochs;
  } else if (tool.every_epoch_by_default && options.epochs.empty()) {
    options.all_epochs = true;
  }

  Result<ToolRun> opened = OpenToolDatabase(argv[arg], options);
  if (!opened.ok()) return data_failure(opened.status());
  ToolRun& run = opened.value();
  // dcpidiff compares its epochs in the order given, even when equal.
  if (tool.diff_epochs) run.epochs = diff_epochs;
  Result<std::vector<std::shared_ptr<ExecutableImage>>> images = LoadImageSet(
      std::vector<std::string>(argv + first_image, argv + first_image + num_images),
      run.jobs);
  if (!images.ok()) return data_failure(images.status());
  run.images = std::move(images).value();
  if (tool.trailing != nullptr) run.trailing = argv[argc - 1];
  Status status = tool.body(run);
  return status.ok() ? 0 : data_failure(status);
}

ProfileGrid::ProfileGrid(const ToolRun& run, std::vector<ProfileSet> sets,
                         const std::vector<EventType>& events)
    : run_(run), cells_(sets.size() * run.images.size() * kNumEventTypes) {
  // Cells land in set-then-input order whichever worker read them.
  const size_t num_images = run.images.size();
  ParallelFor(run.jobs, sets.size() * num_images, [&](size_t cell, int) {
    const ProfileSet& set = sets[cell / num_images];
    const std::string& name = run.images[cell % num_images]->name();
    for (EventType event : events) {
      Result<ImageProfile> profile =
          set.host == ProfileSet::kAllHosts
              ? run.view.ReadProfile(set.epochs, name, event)
              : run.view.host(set.host).ReadMerged(set.epochs, name, event);
      if (profile.ok()) {
        cells_[cell * kNumEventTypes + static_cast<size_t>(event)] =
            std::move(profile).value();
      }
    }
  });
}

const ImageProfile* ProfileGrid::at(size_t set, size_t image, EventType event) const {
  const std::optional<ImageProfile>& cell =
      cells_[(set * run_.images.size() + image) * kNumEventTypes + static_cast<size_t>(event)];
  return cell.has_value() ? &*cell : nullptr;
}

std::vector<ProfInput> ProfileGrid::Inputs(size_t set) const {
  std::vector<ProfInput> inputs;
  for (size_t i = 0; i < run_.images.size(); ++i) {
    const ImageProfile* cycles = at(set, i, EventType::kCycles);
    if (cycles != nullptr) {
      inputs.push_back({run_.images[i], cycles, at(set, i, EventType::kImiss)});
    }
  }
  return inputs;
}

bool ProfileGrid::has_cycles() const {
  for (size_t c = static_cast<size_t>(EventType::kCycles); c < cells_.size(); c += kNumEventTypes) {
    if (cells_[c].has_value()) return true;
  }
  return false;
}

Status NoCyclesProfile(const ToolRun& run) {
  return NotFound("no CYCLES profile for the given images in the requested epochs of " +
                  run.view.root());
}

Result<std::vector<std::shared_ptr<ExecutableImage>>> LoadImageSet(
    const std::vector<std::string>& paths, int jobs) {
  std::vector<Result<std::shared_ptr<ExecutableImage>>> loads(
      paths.size(), Status(StatusCode::kInternal, "not loaded"));
  ParallelFor(jobs, paths.size(),
              [&](size_t i, int) { loads[i] = LoadImage(paths[i]); });
  std::vector<std::shared_ptr<ExecutableImage>> images;
  images.reserve(paths.size());
  for (size_t i = 0; i < paths.size(); ++i) {
    if (!loads[i].ok()) {
      return Status(loads[i].status().code(),
                    "cannot load image " + paths[i] + ": " +
                        loads[i].status().message());
    }
    images.push_back(loads[i].value());
  }
  return images;
}

std::vector<ProfInput> GatherProfInputs(System& system, EventType secondary) {
  std::vector<ProfInput> inputs;
  if (system.daemon() == nullptr) return inputs;
  for (const ImageTruth& truth : system.kernel().ground_truth().images()) {
    ProfInput input;
    input.image = truth.image;
    input.cycles = system.daemon()->FindProfile(truth.image->name(), EventType::kCycles);
    input.secondary = system.daemon()->FindProfile(truth.image->name(), secondary);
    if (input.cycles != nullptr) inputs.push_back(input);
  }
  return inputs;
}

ProcedureSamples SamplesByProcedure(const std::vector<ProfInput>& inputs) {
  ProcedureSamples samples;
  for (const ProcedureRow& row : ListProcedures(inputs)) {
    samples[row.procedure] += row.cycles_samples;
  }
  return samples;
}

ProcedureSamples SamplesByProcedure(System& system) {
  return SamplesByProcedure(GatherProfInputs(system));
}

Result<ProcedureAnalysis> AnalyzeFromSystem(System& system, const ExecutableImage& image,
                                            const std::string& proc_name,
                                            const AnalysisConfig& config) {
  if (system.daemon() == nullptr) {
    return FailedPrecondition("system has no profiling daemon (base mode?)");
  }
  const ProcedureSymbol* proc = image.FindProcedureByName(proc_name);
  if (proc == nullptr) {
    return NotFound("procedure " + proc_name + " in " + image.name());
  }
  const ImageProfile* cycles =
      system.daemon()->FindProfile(image.name(), EventType::kCycles);
  if (cycles == nullptr) {
    return NotFound("no CYCLES profile for " + image.name());
  }
  return AnalyzeProcedureChecked(
      image, *proc, *cycles,
      system.daemon()->FindProfile(image.name(), EventType::kImiss),
      system.daemon()->FindProfile(image.name(), EventType::kDmiss),
      system.daemon()->FindProfile(image.name(), EventType::kBranchMp),
      system.daemon()->FindProfile(image.name(), EventType::kDtbMiss), config);
}

}  // namespace dcpi
