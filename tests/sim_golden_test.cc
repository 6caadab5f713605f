// Golden digests of everything the simulator produces.
//
// Each run below records ground truth and is reduced to one FNV-1a 64-bit
// digest over its ground truth, per-CPU statistics, SystemResult, daemon
// profiles and database files (tests/sim_digest.h). The expected values
// were recorded from the simulator before its host-side fast paths
// (translation and page memos, text windows, precomputed issue facts,
// ground-truth memos, the monitor's issue horizon) existed. Those fast
// paths must leave every simulated byte unchanged, so a change that moves
// a digest changed the simulated machine, not just its host speed. If a
// change means to alter simulated behaviour, re-record the digests and say
// why.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/workloads/workloads.h"
#include "tests/scratch_dir.h"
#include "tests/sim_digest.h"

namespace dcpi {
namespace {

SystemConfig GoldenConfig(uint32_t num_cpus, ProfilingMode mode, const std::string& db_root) {
  SystemConfig config;
  config.kernel.num_cpus = num_cpus;
  config.kernel.record_ground_truth = true;
  config.mode = mode;
  config.period_scale = 1.0 / 16;
  config.db_root = db_root;
  return config;
}

// Every run stops when each CPU's clock reaches this many cycles (the
// smaller workloads finish earlier), which keeps the whole file to a few
// seconds; the final flush still writes the database.
constexpr uint64_t kMaxCycles = 3'000'000;

// Runs `workload` and digests everything it produced.
uint64_t RunAndDigest(const Workload& workload, const SystemConfig& config) {
  System system(config);
  EXPECT_TRUE(workload.Instantiate(&system).ok()) << workload.name;
  SystemResult result = system.Run(kMaxCycles);
  EXPECT_FALSE(result.had_error) << workload.name;
  Fnv1a64 h;
  DigestGroundTruth(system.kernel(), &h);
  DigestCpus(system.kernel(), &h);
  DigestResult(result, &h);
  DigestProfiles(*system.daemon(), &h);
  DigestDatabase(config.db_root, &h);
  return h.value();
}

// The Table 2 suite at 2% of its default size, every workload on
// `num_cpus` CPUs (more than one: threaded collection), in the default
// CYCLES + IMISS mode.
void ExpectSuiteDigests(uint32_t num_cpus,
                        const std::vector<std::pair<std::string, uint64_t>>& expected) {
  ScratchDir scratch;
  WorkloadFactory factory(/*scale=*/0.02);
  std::vector<Workload> suite = factory.Table2Suite();
  ASSERT_EQ(suite.size(), expected.size());
  for (size_t i = 0; i < suite.size(); ++i) {
    ASSERT_EQ(suite[i].name, expected[i].first);
    SystemConfig config = GoldenConfig(num_cpus, ProfilingMode::kDefault,
                                       scratch.path() + "/" + suite[i].name);
    EXPECT_EQ(Hex(RunAndDigest(suite[i], config)), Hex(expected[i].second))
        << suite[i].name << " on " << num_cpus << " CPU(s)";
  }
}

TEST(SimGolden, Table2SuiteOneCpu) {
  ExpectSuiteDigests(1, {
                            {"specint_like", 0x1c87ab8096e13fe1ull},
                            {"specfp_like", 0x8b87b2947011dbcfull},
                            {"x11perf", 0x798d5c5ec197c278ull},
                            {"mccalpin_copy", 0xbcbf3a189b0f6d53ull},
                            {"gcc", 0xa3c4759449dd39f8ull},
                            {"altavista", 0x115412b1f07f91e1ull},
                            {"dss", 0xa038a90e4c2b2debull},
                            {"parallel_specfp", 0xe308339d50dc39d6ull},
                        });
}

TEST(SimGolden, Table2SuiteFourThreadedCpus) {
  ExpectSuiteDigests(4, {
                            {"specint_like", 0xcd931975e495ee79ull},
                            {"specfp_like", 0xc02540edbc3ab935ull},
                            {"x11perf", 0x8f7516166100e283ull},
                            {"mccalpin_copy", 0x91b82f021c2c503cull},
                            {"gcc", 0x3ca76ad8b090630cull},
                            {"altavista", 0x36afdb8192abb8a2ull},
                            {"dss", 0x70e22c89549ec88dull},
                            {"parallel_specfp", 0xfb81a9fc74881a67ull},
                        });
}

TEST(SimGolden, MuxModeTimesharing) {
  ScratchDir scratch;
  WorkloadFactory factory(/*scale=*/0.02);
  SystemConfig config = GoldenConfig(1, ProfilingMode::kMux, scratch.path() + "/db");
  EXPECT_EQ(Hex(RunAndDigest(factory.Timesharing(2), config)), Hex(0xc88e647df08ff56dull));
}

TEST(SimGolden, WideMemorySamplesOnTwoCpus) {
  ScratchDir scratch;
  WorkloadFactory factory(/*scale=*/0.02);
  SystemConfig config = GoldenConfig(2, ProfilingMode::kDefault, scratch.path() + "/db");
  config.mem_fraction = 0.25;
  EXPECT_EQ(Hex(RunAndDigest(factory.Timesharing(2), config)), Hex(0x1aae5168198b6d7eull));
}

}  // namespace
}  // namespace dcpi
