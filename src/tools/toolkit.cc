#include "src/tools/toolkit.h"

#include <algorithm>
#include <cstring>

#include "src/check/selfcheck.h"
#include "src/isa/image_io.h"
#include "src/support/parse.h"
#include "src/support/parallel_for.h"

namespace dcpi {

int ParseToolFlag(int argc, char** argv, int* arg, ToolOptions* options) {
  const char* flag = argv[*arg];
  if (std::strcmp(flag, "--all-epochs") == 0) {
    options->all_epochs = true;
    return 1;
  }
  if (std::strcmp(flag, "--no-cache") == 0) {
    options->use_cache = false;
    return 1;
  }
  if (std::strcmp(flag, "--fleet") == 0) {
    options->fleet = true;
    return 1;
  }
  if (std::strcmp(flag, "--jobs") == 0) {
    if (*arg + 1 >= argc) return -1;
    uint32_t jobs = 0;
    if (!ParseUint32(argv[++*arg], &jobs)) return -1;
    options->jobs = static_cast<int>(jobs);
    return 1;
  }
  if (std::strcmp(flag, "--epoch") == 0) {
    if (*arg + 1 >= argc) return -1;
    uint32_t epoch = 0;
    if (!ParseUint32(argv[++*arg], &epoch)) return -1;
    options->epochs.push_back(epoch);
    return 1;
  }
  return 0;
}

Result<ToolContext> OpenToolDatabase(const std::string& db_root,
                                     const ToolOptions& options) {
  ToolContext context{
      options.fleet ? FleetView(db_root) : FleetView::SingleShard(db_root), {}};
  if (context.view.num_hosts() == 0) {
    return NotFound("no host_<id> shards under fleet root " + db_root);
  }
  if (!options.epochs.empty()) {
    context.epochs = options.epochs;
    std::sort(context.epochs.begin(), context.epochs.end());
    context.epochs.erase(
        std::unique(context.epochs.begin(), context.epochs.end()),
        context.epochs.end());
    return context;
  }
  std::vector<uint32_t> pool = context.view.ListSealedEpochs();
  if (pool.empty()) pool = context.view.ListEpochs();
  if (pool.empty()) {
    return NotFound("no epochs in profile database " + db_root);
  }
  if (options.all_epochs) {
    context.epochs = std::move(pool);
  } else {
    context.epochs = {pool.back()};
  }
  return context;
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

ProcedureSamples SamplesByProcedure(System& system) {
  ProcedureSamples samples;
  for (const ProcedureRow& row : ListProcedures(GatherProfInputs(system))) {
    samples[row.procedure] += row.cycles_samples;
  }
  return samples;
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
