// Continuous-operation tests: epoch rolls driven by image-map changes,
// sealed-epoch immutability under a concurrent reader, sample conservation
// against segmented batch collection, timed flushes, and whole-database
// re-analysis through the per-procedure result cache, sealed and live.
//
// These tests run under TSan in scripts/check.sh (the Continuous filter):
// the concurrent-reader test opens the database read-only from a second
// host thread while the threaded daemon is still flushing the live epoch.

#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/analysis/engine.h"
#include "src/profiledb/database.h"
#include "src/sim/system.h"
#include "src/tools/dcpiprof.h"
#include "src/workloads/session.h"
#include "src/workloads/workloads.h"
#include "tests/scratch_dir.h"

namespace dcpi {
namespace {

SystemConfig ContinuousConfig(const std::string& db_root, uint32_t cpus = 1) {
  SystemConfig config;
  config.kernel.num_cpus = cpus;
  config.mode = ProfilingMode::kCycles;
  config.period_scale = 1.0 / 16;
  config.free_profiling = true;
  config.db_root = db_root;
  config.roll_on_map_change = true;
  config.daemon_flush_interval = config.daemon_drain_interval;
  return config;
}

// Three fresh instantiations of the workload, each run to completion.
SessionPlan ThreeSegments() {
  SessionPlan plan;
  plan.segments = 3;
  return plan;
}

// Per-image CYCLES totals merged across the given epochs.
std::map<std::string, uint64_t> ImageTotals(const ProfileDatabase& db,
                                            const std::vector<uint32_t>& epochs,
                                            const std::vector<std::string>& names) {
  std::map<std::string, uint64_t> totals;
  for (const std::string& name : names) {
    Result<ImageProfile> merged = db.ReadMerged(epochs, name, EventType::kCycles);
    if (merged.ok()) totals[name] = merged.value().total_samples();
  }
  return totals;
}

TEST(Continuous, MapChangeRollsSealEveryRetiredEpoch) {
  ScratchDir scratch;
  const std::string& root = scratch.path();
  WorkloadFactory factory(/*scale=*/0.25);
  Workload workload = factory.SpecIntLike();
  System system(ContinuousConfig(root + "/db"));
  // Three segments run to completion; each one's process exits change the
  // image map and trigger a roll at the following quiesce point.
  SessionResult session = RunSession(&system, workload, ThreeSegments());
  ASSERT_TRUE(session.status.ok()) << session.status.ToString();

  EXPECT_GE(session.result.daemon.epoch_rolls, 3u);
  ProfileDatabase db(root + "/db", DbOpenMode::kReadOnly);
  std::vector<uint32_t> epochs = db.ListEpochs();
  std::vector<uint32_t> sealed = db.ListSealedEpochs();
  ASSERT_GE(sealed.size(), 3u);
  // Every epoch except (at most) the live one carries the seal marker, and
  // the sealed list is a prefix of the full epoch list.
  ASSERT_GE(epochs.size(), sealed.size());
  EXPECT_LE(epochs.size() - sealed.size(), 1u);
  for (size_t i = 0; i < sealed.size(); ++i) {
    EXPECT_EQ(sealed[i], epochs[i]);
    EXPECT_TRUE(std::filesystem::exists(
        root + "/db/epoch_" + std::to_string(sealed[i]) + "/.sealed"));
    Result<std::vector<std::string>> files = db.ListProfiles(sealed[i]);
    ASSERT_TRUE(files.ok());
    EXPECT_FALSE(files.value().empty()) << "sealed epoch " << sealed[i]
                                        << " is empty";
  }
}

TEST(Continuous, SampleTotalsMatchSegmentedBatch) {
  ScratchDir scratch;
  const std::string& root = scratch.path();
  WorkloadFactory factory(/*scale=*/0.25);

  // Continuous: three segments, epoch rolls between them.
  Workload continuous_workload = factory.SpecIntLike();
  System continuous(ContinuousConfig(root + "/cont"));
  SessionResult cont = RunSession(&continuous, continuous_workload, ThreeSegments());
  ASSERT_TRUE(cont.status.ok()) << cont.status.ToString();

  // Batch baseline: identical segment boundaries, but rolls disabled so
  // all samples land in one epoch. Rolls and flushes cost no simulated
  // cycles, so the two runs execute the exact same instruction stream.
  SystemConfig batch_config = ContinuousConfig(root + "/batch");
  batch_config.roll_on_map_change = false;
  batch_config.daemon_flush_interval = 0;
  Workload batch_workload = factory.SpecIntLike();
  System batch(batch_config);
  SessionResult batch_session = RunSession(&batch, batch_workload, ThreeSegments());
  ASSERT_TRUE(batch_session.status.ok()) << batch_session.status.ToString();
  // The segmented batch run never rolled, so all of its samples ended up
  // in one sealed epoch.

  EXPECT_EQ(cont.result.elapsed_cycles, batch_session.result.elapsed_cycles);
  std::vector<std::string> names;
  for (const ImageTruth& truth : continuous.kernel().ground_truth().images()) {
    names.push_back(truth.image->name());
  }

  ProfileDatabase cont_db(root + "/cont", DbOpenMode::kReadOnly);
  ProfileDatabase batch_db(root + "/batch", DbOpenMode::kReadOnly);
  std::map<std::string, uint64_t> cont_totals =
      ImageTotals(cont_db, cont_db.ListSealedEpochs(), names);
  std::map<std::string, uint64_t> batch_totals =
      ImageTotals(batch_db, batch_db.ListSealedEpochs(), names);
  ASSERT_FALSE(cont_totals.empty());
  EXPECT_EQ(cont_totals, batch_totals);
  EXPECT_GE(cont_db.ListSealedEpochs().size(), 3u);
  EXPECT_EQ(batch_db.ListSealedEpochs().size(), 1u);
}

TEST(Continuous, ConcurrentReaderMatchesPostHocListing) {
  ScratchDir scratch;
  const std::string& root = scratch.path();
  WorkloadFactory factory(/*scale=*/0.25);
  Workload workload = factory.SpecIntLike();
  // Two simulated CPUs: the threaded collection path runs a concurrent
  // daemon drain thread, so the reader below races a real writer.
  System system(ContinuousConfig(root + "/db", 2));

  // Two sealed epochs up front; the reader pins this prefix.
  for (int segment = 0; segment < 2; ++segment) {
    ASSERT_TRUE(workload.Instantiate(&system).ok());
    SystemResult result = system.Run();
    ASSERT_FALSE(result.had_error);
  }
  std::vector<uint32_t> sealed_prefix;
  {
    ProfileDatabase db(root + "/db", DbOpenMode::kReadOnly);
    sealed_prefix = db.ListSealedEpochs();
  }
  ASSERT_GE(sealed_prefix.size(), 2u);

  auto image = workload.processes[0].images[0];
  auto listing = [&]() -> std::string {
    // The same read path dcpiprof --epoch ... uses: read-only open, merge
    // the sealed prefix, format the procedure listing.
    ProfileDatabase db(root + "/db", DbOpenMode::kReadOnly);
    Result<ImageProfile> cycles =
        db.ReadMerged(sealed_prefix, image->name(), EventType::kCycles);
    if (!cycles.ok()) return "unreadable: " + cycles.status().ToString();
    ProfInput input;
    input.image = image;
    input.cycles = &cycles.value();
    return FormatProcedureListing(ListProcedures({input}), "imiss");
  };

  // Reader thread hammers the sealed prefix while the system runs two more
  // segments (rolling, flushing, and writing the live epoch underneath it).
  std::vector<std::string> observed;
  std::atomic<bool> stop{false};
  std::thread reader([&]() {
    while (!stop.load(std::memory_order_acquire)) {
      observed.push_back(listing());
    }
  });
  for (int segment = 0; segment < 2; ++segment) {
    ASSERT_TRUE(workload.Instantiate(&system).ok());
    SystemResult result = system.Run();
    ASSERT_FALSE(result.had_error);
  }
  stop.store(true, std::memory_order_release);
  reader.join();
  ASSERT_TRUE(system.SealCurrentEpoch().ok());

  // Sealed epochs are immutable: every concurrent read is byte-identical
  // to the post-hoc read of the same prefix.
  std::string post_hoc = listing();
  ASSERT_FALSE(observed.empty());
  for (const std::string& snapshot : observed) {
    EXPECT_EQ(snapshot, post_hoc);
  }
  // The database kept growing while the reader ran.
  ProfileDatabase db(root + "/db", DbOpenMode::kReadOnly);
  EXPECT_GT(db.ListSealedEpochs().size(), sealed_prefix.size());
}

TEST(Continuous, TimedFlushesPersistTheLiveEpoch) {
  // One CPU takes the sequential path, where the quiesce-point ticks run
  // the timed flushes. Two CPUs take the threaded path, where the drain
  // thread runs them while the workers deliver samples, woken by the
  // workers' clock publishes.
  ScratchDir scratch;
  WorkloadFactory factory(/*scale=*/0.25);
  for (uint32_t cpus : {1u, 2u}) {
    SCOPED_TRACE(std::to_string(cpus) + " cpu(s)");
    Workload workload = cpus == 1 ? factory.SpecIntLike() : factory.Timesharing(cpus);
    const std::string db_root = scratch.path() + "/db" + std::to_string(cpus);
    SystemConfig config = ContinuousConfig(db_root, cpus);
    config.roll_on_map_change = false;
    // Flush and drain often enough that several timed flushes land mid-run.
    config.daemon_drain_interval = 200'000;
    config.daemon_flush_interval = 400'000;
    System system(config);
    ASSERT_TRUE(workload.Instantiate(&system).ok());
    SystemResult result = system.Run();
    ASSERT_FALSE(result.had_error);
    EXPECT_GE(result.daemon.timed_flushes, 2u);
    ASSERT_TRUE(system.SealCurrentEpoch().ok());

    // Periodic flushes replace rather than merge: the on-disk totals match
    // the collected totals exactly despite the repeated mid-run writes.
    uint64_t db_total = 0;
    ProfileDatabase db(db_root, DbOpenMode::kReadOnly);
    for (const ImageTruth& truth : system.kernel().ground_truth().images()) {
      Result<ImageProfile> merged =
          db.ReadMerged(db.ListSealedEpochs(), truth.image->name(), EventType::kCycles);
      if (merged.ok()) db_total += merged.value().total_samples();
    }
    EXPECT_GT(db_total, 0u);
    EXPECT_EQ(db_total,
              result.samples[static_cast<int>(EventType::kCycles)]);
  }
}

// One engine call analyzes every requested epoch in one fan-out. Its
// results are the same bytes at any jobs count, cold, warm and without a
// cache, and unchanged sealed epochs re-analyze entirely from the
// per-epoch caches.
TEST(Continuous, WarmReanalysisHitsTheResultCache) {
  ScratchDir scratch;
  const std::string& root = scratch.path();
  WorkloadFactory factory(/*scale=*/0.25);
  Workload workload = factory.SpecIntLike();
  System system(ContinuousConfig(root + "/db"));
  ASSERT_TRUE(RunSession(&system, workload, ThreeSegments()).status.ok());

  std::vector<std::shared_ptr<const ExecutableImage>> images;
  for (const ImageTruth& truth : system.kernel().ground_truth().images()) {
    images.push_back(truth.image);
  }
  ProfileDatabase db(root + "/db", DbOpenMode::kReadOnly);
  DatabaseAnalysisOptions cached;
  cached.epochs = db.ListSealedEpochs();
  ASSERT_GE(cached.epochs.size(), 3u);
  DatabaseAnalysisOptions uncached = cached;
  uncached.use_cache = false;
  // An empty epoch list analyzes nothing.
  EXPECT_TRUE(AnalysisEngine().AnalyzeDatabase(db, images, AnalysisConfig(),
                                               DatabaseAnalysisOptions())
                  .per_epoch.empty());

  // Every epoch's results as bytes, in order.
  auto bytes = [&](const DatabaseAnalysis& analysis) {
    std::vector<std::vector<std::vector<uint8_t>>> out;
    for (const EpochAnalysisResult& epoch : analysis.per_epoch) {
      out.emplace_back();
      for (const ProcedureResult& r : epoch.analysis.procedures) {
        EXPECT_TRUE(r.status.ok()) << r.status.ToString();
        out.back().push_back(SerializeProcedureAnalysis(r.analysis));
      }
    }
    return out;
  };
  std::vector<std::vector<std::vector<uint8_t>>> want;
  for (int jobs : {1, 2, 8}) {
    SCOPED_TRACE("jobs " + std::to_string(jobs));
    EngineOptions options;
    options.jobs = jobs;
    AnalysisEngine engine(options);
    for (uint32_t epoch : cached.epochs) {
      std::filesystem::remove_all(db.EpochCacheDir(epoch));
    }
    DatabaseAnalysis cold = engine.AnalyzeDatabase(db, images, AnalysisConfig(), cached);
    DatabaseAnalysis warm = engine.AnalyzeDatabase(db, images, AnalysisConfig(), cached);
    DatabaseAnalysis plain =
        engine.AnalyzeDatabase(db, images, AnalysisConfig(), uncached);
    ASSERT_EQ(cold.per_epoch.size(), cached.epochs.size());
    for (size_t e = 0; e < cold.per_epoch.size(); ++e) {
      EXPECT_EQ(cold.per_epoch[e].epoch, cached.epochs[e]);
      EXPECT_FALSE(cold.per_epoch[e].analysis.procedures.empty());
    }
    EXPECT_EQ(cold.cache_hits, 0u);
    EXPECT_GT(cold.cache_misses, 0u);
    EXPECT_EQ(warm.cache_hits, cold.cache_misses);
    EXPECT_EQ(warm.cache_misses, 0u);
    EXPECT_EQ(plain.cache_hits + plain.cache_misses, 0u);
    if (want.empty()) want = bytes(cold);
    EXPECT_EQ(bytes(cold), want);
    EXPECT_EQ(bytes(warm), want);
    EXPECT_EQ(bytes(plain), want);
  }
}

// What a procedure's analysis reads from an input's profiles, computed
// independently of the engine's key: per event slot, nothing for a missing
// profile, else its mean period and the procedure's dense sample slice.
using SliceSignature = std::vector<std::optional<std::pair<double, std::vector<uint64_t>>>>;

SliceSignature Signature(const AnalysisInput& input, const ProcedureSymbol& proc) {
  SliceSignature signature;
  for (const ImageProfile* profile :
       {input.cycles, input.imiss, input.dmiss, input.branchmp, input.dtbmiss}) {
    signature.emplace_back();
    if (profile == nullptr) continue;
    std::vector<uint64_t> slice;
    profile->ExtractDense(input.image->PcToOffset(proc.start),
                          input.image->PcToOffset(proc.end), kInstrBytes, &slice);
    signature.back().emplace(profile->mean_period(), std::move(slice));
  }
  return signature;
}

// A live epoch grows between refreshes, and each refresh re-analyzes only
// the procedures whose own samples changed (or whose image gained an event
// profile). Every cache directory keeps one entry per (image, procedure),
// and cached results stay the bytes of an uncached run at any jobs count.
TEST(Continuous, LiveRefreshReanalyzesOnlyChangedProcedures) {
  ScratchDir scratch;
  const std::string& root = scratch.path();
  WorkloadFactory factory(/*scale=*/0.1);
  Workload workload = factory.Timesharing(/*num_cpus=*/1);
  SystemConfig config = ContinuousConfig(root + "/db");
  config.mode = ProfilingMode::kMux;  // event profiles appear as the run goes
  config.roll_on_map_change = false;  // one live epoch throughout
  System system(config);
  ASSERT_TRUE(workload.Instantiate(&system).ok());
  const uint32_t live = system.database()->current_epoch();
  std::vector<std::shared_ptr<const ExecutableImage>> images;
  for (const ImageTruth& truth : system.kernel().ground_truth().images()) {
    images.push_back(truth.image);
  }

  const AnalysisConfig analysis_config;
  std::map<std::pair<std::string, std::string>, SliceSignature> previous;
  uint64_t reused = 0, reanalyzed = 0;
  constexpr uint64_t kSegmentCycles = 150'000;
  for (uint64_t segment = 1; segment <= 6; ++segment) {
    SCOPED_TRACE("segment " + std::to_string(segment));
    // Each capped segment ends in a flush of the live epoch.
    ASSERT_FALSE(system.Run(segment * kSegmentCycles).had_error);
    ProfileDatabase db(root + "/db", DbOpenMode::kReadOnly);
    std::vector<std::unique_ptr<ImageProfile>> profiles;
    std::vector<AnalysisInput> inputs;
    for (const auto& image : images) {
      AnalysisInput input;
      input.image = image;
      const ImageProfile** slots[] = {&input.cycles, &input.imiss, &input.dmiss,
                                      &input.branchmp, &input.dtbmiss};
      for (int e = 0; e < kNumEventTypes; ++e) {
        Result<ImageProfile> profile =
            db.ReadProfile(live, image->name(), static_cast<EventType>(e));
        if (!profile.ok()) continue;
        profiles.push_back(std::make_unique<ImageProfile>(std::move(profile).value()));
        *slots[e] = profiles.back().get();
      }
      if (input.cycles != nullptr) inputs.push_back(input);
    }
    ASSERT_FALSE(inputs.empty());

    size_t procedures = 0, changed = 0;
    std::map<std::pair<std::string, std::string>, SliceSignature> current;
    for (const AnalysisInput& input : inputs) {
      for (const ProcedureSymbol& proc : input.image->procedures()) {
        const auto id = std::make_pair(input.image->name(), proc.name);
        current[id] = Signature(input, proc);
        auto before = previous.find(id);
        changed += before == previous.end() || before->second != current[id];
        ++procedures;
      }
    }

    EngineOptions plain_options;
    plain_options.jobs = 1;
    const EpochAnalysis plain =
        AnalysisEngine(plain_options).AnalyzeAll(inputs, analysis_config);
    for (int jobs : {1, 2, 8}) {
      SCOPED_TRACE("jobs " + std::to_string(jobs));
      EngineOptions options;
      options.jobs = jobs;
      options.cache_dir = root + "/cache" + std::to_string(jobs);
      const EpochAnalysis cached = AnalysisEngine(options).AnalyzeAll(inputs, analysis_config);
      EXPECT_EQ(cached.cache_misses, changed);
      EXPECT_EQ(cached.cache_hits, procedures - changed);
      ASSERT_EQ(cached.procedures.size(), plain.procedures.size());
      for (size_t i = 0; i < plain.procedures.size(); ++i) {
        ASSERT_TRUE(cached.procedures[i].status.ok());
        EXPECT_EQ(SerializeProcedureAnalysis(cached.procedures[i].analysis),
                  SerializeProcedureAnalysis(plain.procedures[i].analysis))
            << cached.procedures[i].image_name << "/" << cached.procedures[i].proc.name;
      }
      size_t entries = 0;
      for (const auto& entry : std::filesystem::directory_iterator(options.cache_dir)) {
        entries += entry.path().extension() == ".pac";
      }
      EXPECT_EQ(entries, procedures);
    }
    if (segment > 1) {
      reused += procedures - changed;
      reanalyzed += changed;
    }
    previous = std::move(current);
  }
  // The run exercised both sides: refreshes that reused entries and
  // refreshes that re-analyzed some procedures.
  EXPECT_GT(reused, 0u);
  EXPECT_GT(reanalyzed, 0u);
}

}  // namespace
}  // namespace dcpi
