// Workload suite validation: every Table 2 workload assembles and runs to
// completion, and each single-cause microworkload produces its intended
// dominant stall cause in the simulator's ground truth.

#include <gtest/gtest.h>

#include "src/isa/assembler.h"
#include "src/workloads/workloads.h"

namespace dcpi {
namespace {

// Runs a workload at tiny scale in base mode; returns the system.
std::unique_ptr<System> RunTiny(Workload workload, bool record_ground_truth = false) {
  SystemConfig config;
  config.kernel.num_cpus = std::max(1u, workload.num_cpus);
  config.kernel.record_ground_truth = record_ground_truth;
  auto system = std::make_unique<System>(config);
  EXPECT_TRUE(workload.Instantiate(system.get()).ok()) << workload.name;
  SystemResult result = system->Run();
  EXPECT_FALSE(result.had_error) << workload.name;
  EXPECT_GT(result.instructions, 1000u) << workload.name;
  return system;
}

class Table2Workload : public ::testing::TestWithParam<size_t> {};

TEST_P(Table2Workload, AssemblesAndRunsClean) {
  WorkloadFactory factory(/*scale=*/0.02, /*seed=*/3);
  std::vector<Workload> suite = factory.Table2Suite();
  ASSERT_LT(GetParam(), suite.size());
  Workload workload = suite[GetParam()];
  std::unique_ptr<System> system = RunTiny(std::move(workload));
  // Every process finished.
  for (const auto& process : system->kernel().processes()) {
    EXPECT_EQ(process->state(), ProcessState::kDone) << process->name();
  }
}

INSTANTIATE_TEST_SUITE_P(Suite, Table2Workload, ::testing::Range<size_t>(0, 8));

// Sums ground-truth stall cycles by cause over all images of a run that
// recorded it (an unrecorded run would sum to zero and pass vacuously).
void SumStalls(System& system, uint64_t out[kNumStallCauses]) {
  for (const ImageTruth& truth : system.kernel().ground_truth().images()) {
    ASSERT_EQ(truth.instructions.size(), truth.image->num_instructions())
        << truth.image->name();
    for (const InstructionTruth& instr : truth.instructions) {
      for (int c = 0; c < kNumStallCauses; ++c) out[c] += instr.stall_cycles[c];
    }
  }
}

TEST(Microworkloads, PointerChaseIsDcacheBound) {
  WorkloadFactory factory(/*scale=*/0.1);
  std::unique_ptr<System> system =
      RunTiny(factory.PointerChase(), /*record_ground_truth=*/true);
  uint64_t stalls[kNumStallCauses] = {};
  SumStalls(*system, stalls);
  uint64_t dcache = stalls[static_cast<int>(StallCause::kDcacheMiss)];
  for (int c = 0; c < kNumStallCauses; ++c) {
    if (c == static_cast<int>(StallCause::kDcacheMiss)) continue;
    EXPECT_GE(dcache, stalls[c]) << StallCauseName(static_cast<StallCause>(c));
  }
}

TEST(Microworkloads, BranchHeavyIsMispredictBound) {
  WorkloadFactory factory(/*scale=*/0.1);
  std::unique_ptr<System> system =
      RunTiny(factory.BranchHeavy(), /*record_ground_truth=*/true);
  uint64_t stalls[kNumStallCauses] = {};
  SumStalls(*system, stalls);
  uint64_t mp = stalls[static_cast<int>(StallCause::kBranchMispredict)];
  EXPECT_GT(mp, 0u);
  EXPECT_GE(mp, stalls[static_cast<int>(StallCause::kDcacheMiss)]);
  EXPECT_GE(mp, stalls[static_cast<int>(StallCause::kIcacheMiss)]);
}

TEST(Microworkloads, IcacheStressIsIcacheBound) {
  WorkloadFactory factory(/*scale=*/0.2);
  std::unique_ptr<System> system =
      RunTiny(factory.IcacheStress(), /*record_ground_truth=*/true);
  uint64_t stalls[kNumStallCauses] = {};
  SumStalls(*system, stalls);
  uint64_t icache = stalls[static_cast<int>(StallCause::kIcacheMiss)];
  EXPECT_GT(icache, 0u);
  EXPECT_GE(icache, stalls[static_cast<int>(StallCause::kDcacheMiss)]);
  EXPECT_GE(icache, stalls[static_cast<int>(StallCause::kBranchMispredict)]);
}

TEST(Microworkloads, ImulFdivOccupiesUnits) {
  WorkloadFactory factory(/*scale=*/0.1);
  std::unique_ptr<System> system =
      RunTiny(factory.ImulFdivStress(), /*record_ground_truth=*/true);
  uint64_t stalls[kNumStallCauses] = {};
  SumStalls(*system, stalls);
  // Unit occupancy and long dependency latency dominate.
  uint64_t fu = stalls[static_cast<int>(StallCause::kImulBusy)] +
                stalls[static_cast<int>(StallCause::kFdivBusy)] +
                stalls[static_cast<int>(StallCause::kDependency)];
  EXPECT_GT(fu, stalls[static_cast<int>(StallCause::kDcacheMiss)]);
}

TEST(Microworkloads, WriteBufferStressOverflows) {
  WorkloadFactory factory(/*scale=*/0.2);
  std::unique_ptr<System> system =
      RunTiny(factory.WriteBufferStress(), /*record_ground_truth=*/true);
  uint64_t stalls[kNumStallCauses] = {};
  SumStalls(*system, stalls);
  EXPECT_GT(stalls[static_cast<int>(StallCause::kWriteBuffer)], 1000u);
}

TEST(WorkloadFactory, ImagesGetDistinctBases) {
  WorkloadFactory factory(0.05);
  Workload x11 = factory.X11PerfLike();
  Workload copy = factory.McCalpin(StreamKernel::kCopy);
  std::vector<std::shared_ptr<ExecutableImage>> images = x11.processes[0].images;
  images.push_back(copy.processes[0].images[0]);
  for (size_t i = 0; i < images.size(); ++i) {
    for (size_t j = i + 1; j < images.size(); ++j) {
      bool disjoint = images[i]->text_end() <= images[j]->text_base() ||
                      images[j]->text_end() <= images[i]->text_base();
      EXPECT_TRUE(disjoint) << images[i]->name() << " vs " << images[j]->name();
    }
  }
}

TEST(WorkloadFactory, GccUsesOneSharedImageManyPids) {
  WorkloadFactory factory(0.05);
  Workload gcc = factory.GccLike(5);
  ASSERT_EQ(gcc.processes.size(), 5u);
  for (const ProcessSpec& spec : gcc.processes) {
    EXPECT_EQ(spec.images[0].get(), gcc.processes[0].images[0].get());
  }
  // Large flat text (the property that drives the eviction rate).
  EXPECT_GT(gcc.processes[0].images[0]->num_instructions(), 5000u);
}

// Altavista's query generator loads its seed with one `li`, so the seed
// wraps into kMaxLiValue's range: a seed past it still builds, and every
// seed below the wrap builds the image it always did.
TEST(WorkloadFactory, EverySeedBuilds) {
  WorkloadFactory large(0.05, 4242424242u);
  EXPECT_FALSE(large.Timesharing(1).processes.empty());
  EXPECT_FALSE(large.AltaVistaLike().processes.empty());
  EXPECT_TRUE(large.status().ok()) << large.status().ToString();

  auto text = [](uint64_t seed) {
    return WorkloadFactory(0.05, seed).AltaVistaLike().processes[0].images[0]->text();
  };
  const uint64_t wrap = static_cast<uint64_t>(kMaxLiValue) + 1;
  EXPECT_EQ(text(7), text(7 + wrap));
  EXPECT_NE(text(7), text(8));
}

}  // namespace
}  // namespace dcpi
