// Multiprocessor determinism: the threaded collection path must produce
// results that depend only on the simulated machine, never on how the host
// OS interleaves the per-CPU worker threads and the daemon drain thread.
// We run the same 4-CPU workload repeatedly with different injected
// host-thread jitter (pseudo-random std::this_thread::yield() calls) and
// require the merged per-(image, event) profiles — and the simulated
// timings — to be identical. A final run compares the threaded path
// against the sequential scheduler on the same machine, down to the bytes
// of the profile database each writes.

// A further equivalence rides the same harness: the driver's shipped
// Section 5.4 hash policy must leave the profile output untouched relative
// to the 1997 baseline (with free profiling the sample stream depends only
// on the simulated machine, so only lost or misattributed samples could
// diverge).

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "src/workloads/workloads.h"
#include "tests/scratch_dir.h"

namespace dcpi {
namespace {

// (image name, event) -> (offset -> samples): a run's full merged profile.
using ProfileSnapshot =
    std::map<std::pair<std::string, int>, std::map<uint64_t, uint64_t>>;

struct RunOutcome {
  ProfileSnapshot profiles;
  uint64_t elapsed_cycles = 0;
  uint64_t instructions = 0;
  uint64_t total_samples = 0;
  uint64_t samples_attributed = 0;
  uint64_t samples_unknown = 0;
  uint64_t daemon_memory_bytes = 0;
};

SystemConfig MpConfig(uint32_t jitter_seed, bool threaded = true) {
  SystemConfig config;
  config.kernel.num_cpus = 4;
  config.mode = ProfilingMode::kDefault;  // cycles + imiss: two event streams
  config.period_scale = 1.0 / 32;
  config.free_profiling = true;
  config.threaded_collection = threaded;
  config.host_jitter_seed = jitter_seed;
  // Small interval: many flush/drain handoffs per run, so an
  // interleaving-sensitive bug has plenty of chances to show.
  config.daemon_drain_interval = 500'000;
  return config;
}

RunOutcome RunOnce(const SystemConfig& config) {
  WorkloadFactory factory(/*scale=*/0.05);
  Workload workload = factory.DssLike(4);
  System system(config);
  EXPECT_TRUE(workload.Instantiate(&system).ok());
  SystemResult result = system.Run();
  EXPECT_FALSE(result.had_error);

  RunOutcome out;
  out.elapsed_cycles = result.elapsed_cycles;
  out.instructions = result.instructions;
  out.total_samples = result.driver_total.interrupts;
  out.samples_attributed = result.daemon.samples_attributed;
  out.samples_unknown = result.daemon.samples_unknown;
  out.daemon_memory_bytes = system.daemon()->MemoryUsageBytes();
  for (const ImageProfile* profile : system.daemon()->AllProfiles()) {
    out.profiles[{profile->image_name(), static_cast<int>(profile->event())}] =
        profile->counts();
  }
  return out;
}

void ExpectIdentical(const RunOutcome& a, const RunOutcome& b, const char* what) {
  EXPECT_EQ(a.elapsed_cycles, b.elapsed_cycles) << what;
  EXPECT_EQ(a.instructions, b.instructions) << what;
  EXPECT_EQ(a.total_samples, b.total_samples) << what;
  EXPECT_EQ(a.samples_attributed, b.samples_attributed) << what;
  EXPECT_EQ(a.samples_unknown, b.samples_unknown) << what;
  ASSERT_EQ(a.profiles.size(), b.profiles.size()) << what;
  for (const auto& [key, counts] : a.profiles) {
    auto it = b.profiles.find(key);
    ASSERT_NE(it, b.profiles.end())
        << what << ": profile (" << key.first << ", " << key.second
        << ") missing from second run";
    EXPECT_EQ(counts, it->second)
        << what << ": profile (" << key.first << ", " << key.second
        << ") diverged";
  }
}

TEST(MpDeterminism, JitteredInterleavingsYieldIdenticalProfiles) {
  RunOutcome reference = RunOnce(MpConfig(/*jitter_seed=*/0));
  EXPECT_GT(reference.total_samples, 1000u);   // the run actually sampled
  EXPECT_GT(reference.profiles.size(), 1u);    // several (image, event) pairs
  for (uint32_t jitter : {7u, 1234u, 99991u}) {
    RunOutcome jittered = RunOnce(MpConfig(jitter));
    ExpectIdentical(reference, jittered, "jittered threaded run");
  }
}

TEST(MpDeterminism, DaemonMemoryIsIndependentOfInterleaving) {
  // Table 5's daemon-memory column is a simulated quantity: the same
  // machine reports the same bytes whatever order the drain thread
  // ingested the buffers in.
  RunOutcome first = RunOnce(MpConfig(/*jitter_seed=*/11));
  RunOutcome second = RunOnce(MpConfig(/*jitter_seed=*/4242));
  EXPECT_GT(first.daemon_memory_bytes, 0u);
  EXPECT_EQ(first.daemon_memory_bytes, second.daemon_memory_bytes);
}

// Every regular file under `root`, as relative path -> raw bytes.
std::map<std::string, std::vector<uint8_t>> ReadTree(const std::string& root) {
  std::map<std::string, std::vector<uint8_t>> files;
  for (const auto& entry : std::filesystem::recursive_directory_iterator(root)) {
    if (!entry.is_regular_file()) continue;
    std::string rel = std::filesystem::relative(entry.path(), root).string();
    std::ifstream in(entry.path(), std::ios::binary);
    files[rel] = std::vector<uint8_t>(std::istreambuf_iterator<char>(in),
                                      std::istreambuf_iterator<char>());
  }
  return files;
}

TEST(MpDeterminism, ThreadedMatchesSequentialScheduler) {
  // The sharded scheduler is the same machine whether the shards advance on
  // one host thread or four: identical samples, identical profiles, and a
  // byte-identical database — what the drain thread stages and flushes
  // concurrently is exactly what inline draining writes.
  ScratchDir scratch;
  SystemConfig threaded_config = MpConfig(/*jitter_seed=*/3);
  threaded_config.db_root = scratch.path() + "/threaded";
  SystemConfig sequential_config = MpConfig(/*jitter_seed=*/0, /*threaded=*/false);
  sequential_config.db_root = scratch.path() + "/sequential";
  RunOutcome threaded = RunOnce(threaded_config);
  RunOutcome sequential = RunOnce(sequential_config);
  ExpectIdentical(threaded, sequential, "threaded vs sequential");
  std::map<std::string, std::vector<uint8_t>> tree = ReadTree(threaded_config.db_root);
  EXPECT_FALSE(tree.empty());
  EXPECT_EQ(tree, ReadTree(sequential_config.db_root));
}

TEST(MpDeterminism, MemFractionZeroWritesByteIdenticalDatabase) {
  // Memory sampling off is the shipped default, and it must be *exactly*
  // the pre-wide-record pipeline: with mem_fraction 0 the wide-sample RNG
  // is never consulted, no version-4 files appear, and the on-disk
  // database is byte-identical to a build that never heard of wide
  // records — at one CPU and at four.
  ScratchDir scratch;
  for (uint32_t cpus : {1u, 4u}) {
    std::map<std::string, std::vector<uint8_t>> trees[2];
    int index = 0;
    for (bool explicit_zero : {false, true}) {
      std::string root = scratch.path() + "/memfrac_db_" + std::to_string(cpus) +
                         (explicit_zero ? "_zero" : "_default");
      SystemConfig config = MpConfig(/*jitter_seed=*/explicit_zero ? 17 : 0);
      config.kernel.num_cpus = cpus;
      config.db_root = root;
      if (explicit_zero) config.mem_fraction = 0.0;
      RunOutcome out = RunOnce(config);
      EXPECT_GT(out.total_samples, 0u);
      trees[index++] = ReadTree(root);
    }
    EXPECT_FALSE(trees[0].empty()) << cpus << " cpus";
    EXPECT_EQ(trees[0], trees[1]) << cpus << " cpus";
    // No file in a fraction-0 database may carry the version-4 memory
    // section: byte 4 of every profile is the pre-v4 format version.
    for (const auto& [path, bytes] : trees[0]) {
      if (path.find(".prof") == std::string::npos || bytes.size() < 5) continue;
      EXPECT_LE(bytes[4], 3) << path;
    }
  }
}

TEST(MpDeterminism, MemSamplingIsDeterministicAcrossInterleavings) {
  // With wide records on, the database (now holding version-4 profiles)
  // must still depend only on the simulated machine: identical trees
  // across host-thread jitter seeds, at four CPUs.
  ScratchDir scratch;
  std::map<std::string, std::vector<uint8_t>> trees[2];
  int index = 0;
  for (uint32_t jitter : {0u, 1234u}) {
    std::string root = scratch.path() + "/memwide_db_" + std::to_string(jitter);
    SystemConfig config = MpConfig(jitter);
    config.db_root = root;
    config.mem_fraction = 0.25;
    RunOutcome out = RunOnce(config);
    EXPECT_GT(out.total_samples, 0u);
    trees[index++] = ReadTree(root);
  }
  EXPECT_FALSE(trees[0].empty());
  EXPECT_EQ(trees[0], trees[1]);
}

TEST(MpDeterminism, ShippedHashPolicyMatchesLegacyProfiles) {
  // With free profiling the sample stream depends only on the simulated
  // machine, so the hash table is a pure aggregation stage: the 6-way
  // swap-to-front default and the shipped-1997 4-way mod-counter baseline
  // must merge to identical profiles (different eviction orders, same
  // totals) and identical simulated timings.
  RunOutcome shipped = RunOnce(MpConfig(/*jitter_seed=*/0));
  SystemConfig legacy_config = MpConfig(/*jitter_seed=*/5);
  legacy_config.driver.hash = HashTableConfig::Legacy();
  RunOutcome legacy = RunOnce(legacy_config);
  ExpectIdentical(shipped, legacy, "shipped vs legacy hash policy");
}

}  // namespace
}  // namespace dcpi
