// Ground truth on request (KernelConfig::record_ground_truth): a System
// that does not ask keeps the image registry but attaches no recorder and
// sizes no counters, and asking or not moves no simulated byte.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "src/workloads/workloads.h"
#include "tests/scratch_dir.h"
#include "tests/sim_digest.h"

namespace dcpi {
namespace {

std::vector<std::pair<std::string, uint64_t>> ListImages(System& system) {
  std::vector<std::pair<std::string, uint64_t>> images;
  for (const ImageTruth& truth : system.kernel().ground_truth().images()) {
    images.emplace_back(truth.image->name(), truth.image->text_base());
  }
  return images;
}

std::unique_ptr<System> RunGcc(bool record_ground_truth) {
  SystemConfig config;
  config.kernel.record_ground_truth = record_ground_truth;
  config.mode = ProfilingMode::kCycles;
  auto system = std::make_unique<System>(config);
  WorkloadFactory factory(/*scale=*/0.02);
  EXPECT_TRUE(factory.GccLike(3).Instantiate(system.get()).ok());
  EXPECT_FALSE(system->Run().had_error);
  return system;
}

TEST(TruthOnRequest, UnaskedSystemKeepsOnlyTheImageRegistry) {
  std::unique_ptr<System> unasked = RunGcc(false);
  std::unique_ptr<System> asked = RunGcc(true);

  // Every loaded image, /vmunix included, in text-base order either way.
  std::vector<std::pair<std::string, uint64_t>> images = ListImages(*unasked);
  EXPECT_EQ(images, ListImages(*asked));
  ASSERT_GE(images.size(), 2u);
  EXPECT_EQ(images[0].first, "/vmunix");
  for (size_t i = 1; i < images.size(); ++i) {
    EXPECT_LT(images[i - 1].second, images[i].second);
  }

  for (const ImageTruth& truth : unasked->kernel().ground_truth().images()) {
    EXPECT_TRUE(truth.instructions.empty()) << truth.image->name();
    EXPECT_TRUE(truth.edges.empty()) << truth.image->name();
  }
  for (const ImageTruth& truth : asked->kernel().ground_truth().images()) {
    EXPECT_EQ(truth.instructions.size(), truth.image->num_instructions())
        << truth.image->name();
  }
}

TEST(TruthOnRequest, UnaskedKernelAttachesNoRecorderToAnyCpu) {
  KernelConfig config;
  config.num_cpus = 4;
  Kernel unasked(config);
  config.record_ground_truth = true;
  Kernel asked(config);
  for (uint32_t cpu = 0; cpu < config.num_cpus; ++cpu) {
    EXPECT_EQ(unasked.cpu(cpu).ground_truth(), nullptr);
    EXPECT_NE(asked.cpu(cpu).ground_truth(), nullptr);
  }
}

struct Scenario {
  std::string name;
  ProfilingMode mode;
  uint32_t num_cpus;
  double mem_fraction = 0.0;
};

void PrintTo(const Scenario& scenario, std::ostream* os) { *os << scenario.name; }

struct RunDigests {
  std::string cpus, result, profiles, database;
};

RunDigests RunScenario(const Scenario& scenario, bool record_ground_truth,
               const std::string& db_root) {
  SystemConfig config;
  config.kernel.num_cpus = scenario.num_cpus;
  config.kernel.record_ground_truth = record_ground_truth;
  config.mode = scenario.mode;
  config.period_scale = 1.0 / 16;
  config.mem_fraction = scenario.mem_fraction;
  config.db_root = db_root;
  System system(config);
  WorkloadFactory factory(/*scale=*/0.02);
  EXPECT_TRUE(factory.Timesharing(2).Instantiate(&system).ok());
  SystemResult result = system.Run(/*max_cycles=*/3'000'000);
  EXPECT_FALSE(result.had_error);
  RunDigests digests;
  digests.cpus = PartDigest([&](Fnv1a64* h) { DigestCpus(system.kernel(), h); });
  digests.result = PartDigest([&](Fnv1a64* h) { DigestResult(result, h); });
  digests.profiles = PartDigest([&](Fnv1a64* h) { DigestProfiles(*system.daemon(), h); });
  digests.database = PartDigest([&](Fnv1a64* h) { DigestDatabase(db_root, h); });
  return digests;
}

class TruthOnRequestRun : public ::testing::TestWithParam<Scenario> {};

TEST_P(TruthOnRequestRun, AskingMovesNoSimulatedByte) {
  ScratchDir scratch;
  RunDigests unasked = RunScenario(GetParam(), false, scratch.path() + "/unasked");
  RunDigests asked = RunScenario(GetParam(), true, scratch.path() + "/asked");
  EXPECT_EQ(unasked.cpus, asked.cpus);
  EXPECT_EQ(unasked.result, asked.result);
  EXPECT_EQ(unasked.profiles, asked.profiles);
  EXPECT_EQ(unasked.database, asked.database);
}

INSTANTIATE_TEST_SUITE_P(
    Modes, TruthOnRequestRun,
    ::testing::Values(Scenario{"default_1cpu", ProfilingMode::kDefault, 1},
                      Scenario{"default_2cpu", ProfilingMode::kDefault, 2},
                      Scenario{"mux_mem_1cpu", ProfilingMode::kMux, 1, 0.25},
                      Scenario{"mux_mem_2cpu", ProfilingMode::kMux, 2, 0.25}),
    [](const ::testing::TestParamInfo<Scenario>& param) { return param.param.name; });

}  // namespace
}  // namespace dcpi
