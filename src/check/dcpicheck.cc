#include "src/check/dcpicheck.h"

#include <memory>
#include <utility>

#include "src/analysis/engine.h"
#include "src/check/selfcheck.h"
#include "src/isa/image_io.h"
#include "src/profiledb/database.h"

namespace dcpi {

namespace {

// Per-image-file state gathered before the parallel analysis: the loaded
// image and the violations (load errors, lint findings) that must precede
// its per-epoch procedure reports.
struct ImageEntry {
  CheckReport pre;
  std::shared_ptr<ExecutableImage> image;  // null if the file did not load
  size_t image_index = 0;  // index into the AnalyzeDatabase image set
};

}  // namespace

CheckReport RunDcpicheck(const DcpicheckOptions& options, size_t* analyzed_pairs) {
  // Read-only: dcpicheck may run against a database a daemon is still
  // writing, and must never quarantine its in-flight files.
  ProfileDatabase db(options.db_root, DbOpenMode::kReadOnly);
  std::vector<Result<std::shared_ptr<ExecutableImage>>> images;
  for (const std::string& file : options.image_files) {
    Result<std::shared_ptr<ExecutableImage>> loaded = LoadImage(file);
    if (!loaded.ok()) {
      loaded = Status(loaded.status().code(), "cannot load image " + file + ": " +
                                                  loaded.status().ToString());
    }
    images.push_back(std::move(loaded));
  }
  return CheckDatabase(db, images, options, analyzed_pairs);
}

CheckReport CheckDatabase(
    const ProfileDatabase& db,
    const std::vector<Result<std::shared_ptr<ExecutableImage>>>& images_in,
    const DcpicheckOptions& options, size_t* analyzed_pairs) {
  AnalysisConfig config = options.analysis;
  config.selfcheck = true;

  // Lint serially (cheap, and the lint findings must keep input order);
  // analysis fans out below.
  std::vector<ImageEntry> entries(images_in.size());
  std::vector<std::shared_ptr<const ExecutableImage>> images;
  for (size_t i = 0; i < images_in.size(); ++i) {
    ImageEntry& entry = entries[i];
    if (!images_in[i].ok()) {
      entry.pre.AddViolation(CheckPass::kInput, CheckSeverity::kError,
                             images_in[i].status().message());
      continue;
    }
    entry.image = images_in[i].value();
    LintImage(*entry.image, &entry.pre, options.lint);
    entry.image_index = images.size();
    images.push_back(entry.image);
  }

  EngineOptions engine_options;
  engine_options.jobs = options.jobs;
  engine_options.analyze = AnalyzeProcedureChecked;
  AnalysisEngine engine(std::move(engine_options));

  DatabaseAnalysisOptions db_options;
  db_options.epochs = options.epochs;
  db_options.use_cache = options.use_cache;
  DatabaseAnalysis analyzed = engine.AnalyzeDatabase(db, images, config, db_options);

  // Per-epoch offsets of each image's procedure block, so the reduction
  // below can walk an image's results across epochs in order.
  struct EpochIndex {
    // images.size() entries; SIZE_MAX when the image was not analyzed.
    std::vector<size_t> first_result;
  };
  std::vector<EpochIndex> epoch_index(analyzed.per_epoch.size());
  if (analyzed_pairs != nullptr) *analyzed_pairs = 0;
  for (size_t e = 0; e < analyzed.per_epoch.size(); ++e) {
    if (analyzed_pairs != nullptr) {
      *analyzed_pairs += analyzed.per_epoch[e].analyzed_images.size();
    }
    epoch_index[e].first_result.assign(images.size(), SIZE_MAX);
    size_t offset = 0;
    for (size_t image : analyzed.per_epoch[e].analyzed_images) {
      epoch_index[e].first_result[image] = offset;
      offset += images[image]->procedures().size();
    }
  }

  // Ordered reduction: per image, the lint findings first, then each
  // checked epoch's procedure reports — identical for any jobs count.
  CheckReport report;
  if (options.epochs.empty()) {
    report.AddViolation(CheckPass::kInput, CheckSeverity::kWarning,
                        "profile database " + db.root() +
                            " has none of the requested epochs; analysis "
                            "passes skipped");
  }
  for (const ImageEntry& entry : entries) {
    for (const CheckViolation& v : entry.pre.violations()) report.Add(v);
    if (!entry.image) continue;
    for (size_t e = 0; e < analyzed.per_epoch.size(); ++e) {
      const EpochAnalysisResult& epoch = analyzed.per_epoch[e];
      size_t first = epoch_index[e].first_result[entry.image_index];
      if (first == SIZE_MAX) {
        CheckViolation& v = report.AddViolation(
            CheckPass::kInput, CheckSeverity::kWarning,
            "no CYCLES profile in epoch " + std::to_string(epoch.epoch) +
                "; analysis passes skipped");
        v.image = entry.image->name();
        continue;
      }
      for (size_t p = 0; p < entry.image->procedures().size(); ++p) {
        const ProcedureResult& result = epoch.analysis.procedures[first + p];
        if (!result.status.ok()) {
          CheckViolation& v = report.AddViolation(
              CheckPass::kInput, CheckSeverity::kError,
              "analysis failed: " + result.status.ToString());
          v.image = result.image_name;
          v.proc = result.proc.name;
          continue;
        }
        report.Merge(result.analysis.selfcheck_report);
      }
    }
  }
  return report;
}

}  // namespace dcpi
