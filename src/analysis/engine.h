// Parallel analysis engine with a per-procedure result cache.
//
// The offline tools (dcpicalc, dcpicheck) analyze (image, procedure)
// pairs. The pairs are independent, so every engine call builds its whole
// task list (each procedure of each input, and for AnalyzeDatabase of
// each requested epoch), fans it out with one ParallelFor, and collects
// results into index-addressed slots. The reduction order is fixed by the
// input order (epochs as requested, images in the order given, procedures
// in symbol-table order), so tool output is byte-identical regardless of
// --jobs. The engine reports per-procedure results only; it keeps no
// summary across epochs.
//
// The cache keeps one entry per (image name, config fingerprint,
// procedure) in a file named by a hash of those: its slot. The entry is
// keyed by one 64-bit hash of what that procedure's analysis reads — the
// image content, the config fingerprint, the procedure symbol, and for
// each event profile its presence, mean period and the procedure's own
// sample counts — and echoes the key in its header. A lookup whose echoed
// key differs is a miss; the recompute replaces the slot's entry. So a
// sample added to one procedure re-analyzes only that procedure, and a
// cache directory never holds more entries than procedures analyzed
// through it. Entries carry a CRC32 trailer and are ignored (recomputed
// and rewritten) when corrupt. A call creates a cache directory only for
// a procedure it analyzes through it, so analysis never creates an epoch
// directory.

#ifndef SRC_ANALYSIS_ENGINE_H_
#define SRC_ANALYSIS_ENGINE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/analysis/analyzer.h"

namespace dcpi {

class ProfileDatabase;

// One image of an epoch together with its per-event profiles. `cycles` is
// required for analysis (procedures of an input without it get an error
// result); the event profiles may be null, with the usual pessimistic
// effect on culprit pruning. The profile pointers must outlive the engine
// calls; they are not owned.
struct AnalysisInput {
  std::shared_ptr<const ExecutableImage> image;
  const ImageProfile* cycles = nullptr;
  const ImageProfile* imiss = nullptr;
  const ImageProfile* dmiss = nullptr;
  const ImageProfile* branchmp = nullptr;
  const ImageProfile* dtbmiss = nullptr;
};

// The per-procedure analysis callback. Defaults to AnalyzeProcedure;
// dcpicheck and dcpicalc pass AnalyzeProcedureChecked (the engine cannot
// name it directly: src/check links against src/analysis, not vice versa).
// Must be thread-safe for distinct procedures. With a cache it may read
// from the profiles only what both of those read: the mean periods and
// the counts inside the procedure's own range (the cache key covers
// nothing else).
using AnalyzeFn = std::function<Result<ProcedureAnalysis>(
    const ExecutableImage&, const ProcedureSymbol&, const ImageProfile&,
    const ImageProfile*, const ImageProfile*, const ImageProfile*,
    const ImageProfile*, const AnalysisConfig&, AnalysisScratch*)>;

struct EngineOptions {
  int jobs = 0;           // worker threads; <1 = hardware concurrency
  std::string cache_dir;  // result-cache directory; empty disables caching
  AnalyzeFn analyze = AnalyzeProcedure;
};

struct ProcedureResult {
  std::string image_name;
  ProcedureSymbol proc;
  Status status;              // per-procedure failure (analysis is empty)
  ProcedureAnalysis analysis; // valid when status.ok()
  bool from_cache = false;
};

struct EpochAnalysis {
  // One entry per (image, procedure) pair, in input order then
  // symbol-table order — identical for every jobs count.
  std::vector<ProcedureResult> procedures;
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;  // analyzed fresh (missing, stale or corrupt entry)
};

// ---- Incremental whole-database analysis (continuous operation) ----
//
// A continuous run's database is a sequence of sealed epochs. AnalyzeDatabase
// analyzes each requested epoch through that epoch's own result cache
// (<db>/epoch_N/.cache), so re-analyzing a grown database only pays for the
// new epochs and, in a live epoch, for the procedures whose samples grew.

struct DatabaseAnalysisOptions {
  // Epochs to analyze, ascending. Empty analyzes none: the caller resolves
  // any default (the tools do it once, in RunReaderTool).
  std::vector<uint32_t> epochs;
  bool use_cache = true;  // per-epoch caches under the database
};

struct EpochAnalysisResult {
  uint32_t epoch = 0;
  // Indices (into AnalyzeDatabase's `images`) of the images that had a
  // CYCLES profile this epoch, in input order; `analysis.procedures` holds
  // exactly these images' procedures, grouped in the same order.
  std::vector<size_t> analyzed_images;
  EpochAnalysis analysis;
};

struct DatabaseAnalysis {
  std::vector<EpochAnalysisResult> per_epoch;  // one per requested epoch
  uint64_t cache_hits = 0;    // totals across epochs
  uint64_t cache_misses = 0;
};

class AnalysisEngine {
 public:
  explicit AnalysisEngine(EngineOptions options = EngineOptions());

  // Analyzes every procedure of every input. Results appear in
  // deterministic order (see EpochAnalysis); per-procedure failures are
  // recorded in ProcedureResult::status, not returned.
  EpochAnalysis AnalyzeAll(const std::vector<AnalysisInput>& inputs,
                           const AnalysisConfig& config);

  // Analyzes a single procedure through the same cache.
  ProcedureResult AnalyzeOne(const AnalysisInput& input,
                             const ProcedureSymbol& proc,
                             const AnalysisConfig& config);

  // Analyzes the requested epochs of `db` (none when `opts.epochs` is
  // empty), each through its own per-epoch cache. Profiles are read on
  // the calling thread; then every epoch's procedures go out in one
  // fan-out. `EngineOptions::cache_dir` is ignored here; caching is
  // controlled by `opts.use_cache`. Only the given images are analyzed;
  // images without a CYCLES profile in an epoch are skipped for that epoch.
  DatabaseAnalysis AnalyzeDatabase(
      const ProfileDatabase& db,
      const std::vector<std::shared_ptr<const ExecutableImage>>& images,
      const AnalysisConfig& config,
      const DatabaseAnalysisOptions& opts = DatabaseAnalysisOptions());

 private:
  // One procedure to analyze, through `cache_dir` (empty: no cache), into
  // `out`.
  struct Task {
    const AnalysisInput* input;
    const ProcedureSymbol* proc;
    const std::string* cache_dir;
    ProcedureResult* out;
  };
  // Sizes `out->procedures` for every procedure of `inputs` and appends a
  // task for each slot.
  static void AddTasks(const std::vector<AnalysisInput>& inputs,
                       const std::string& cache_dir, EpochAnalysis* out,
                       std::vector<Task>* tasks);
  // The one runner. On the calling thread it hashes each distinct image
  // once and creates the cache directories the tasks use; then it analyzes
  // every task in one ParallelFor, each task keying its own procedure.
  void Run(const std::vector<Task>& tasks, const AnalysisConfig& config);

  EngineOptions options_;
  int jobs_;  // options_.jobs resolved: <1 became hardware concurrency
};

// ---- Cache-key pieces (exposed for tests and tools) ----

// A 32-bit fold of the 64-bit image content hash a cache key starts from:
// the image name, text placement, instruction words and procedure table
// (not the data section, which analysis never reads).
uint32_t ImageContentCrc(const ExecutableImage& image);

// A 32-bit fold of the hashes of every procedure's sample slice in the
// input (per event slot: presence, mean period, and the procedure's
// on-grid nonzero counts), so it times the slice hashing a warm pass does.
// Neither fold keys anything; the benchmark's key-cost probe calls both.
uint32_t ProfileSetCrc(const AnalysisInput& input);

// 64-bit hash over every analysis-affecting AnalysisConfig field
// (pipeline latencies, fill costs, tuning, selfcheck flag, ...).
uint64_t ConfigFingerprint(const AnalysisConfig& config);

// The cache slot for a procedure under `cache_dir`: a file named by a hash
// of (image name, config fingerprint, procedure name/start/end) only, so
// each holds the analysis of the last inputs stored for it.
std::string CacheEntryPath(const std::string& cache_dir, const std::string& image_name,
                           uint64_t config_fp, const ProcedureSymbol& proc);

// ---- Cache-entry payload (exposed for tests) ----
//
// The payload stores everything in a ProcedureAnalysis except the decoded
// instruction words, which are re-decoded from the image on load (they are
// pure functions of the image text, and the key already covers it).
std::vector<uint8_t> SerializeProcedureAnalysis(const ProcedureAnalysis& analysis);
Result<ProcedureAnalysis> DeserializeProcedureAnalysis(const uint8_t* data,
                                                       size_t size,
                                                       const ExecutableImage& image);
inline Result<ProcedureAnalysis> DeserializeProcedureAnalysis(
    const std::vector<uint8_t>& bytes, const ExecutableImage& image) {
  return DeserializeProcedureAnalysis(bytes.data(), bytes.size(), image);
}

}  // namespace dcpi

#endif  // SRC_ANALYSIS_ENGINE_H_
