// Integration tests: workload -> CPU -> perf counters -> driver -> daemon
// -> profile database.

#include <gtest/gtest.h>

#include <cstdio>

#include "src/workloads/workloads.h"
#include "tests/scratch_dir.h"

namespace dcpi {
namespace {

SystemConfig DenseSamplingConfig(ProfilingMode mode, uint32_t num_cpus = 1) {
  SystemConfig config;
  config.kernel.num_cpus = num_cpus;
  config.kernel.record_ground_truth = true;  // the accuracy checks read it
  config.mode = mode;
  config.period_scale = 1.0 / 32;  // dense sampling for short runs
  config.free_profiling = true;    // keep dense interrupts from skewing timing
  return config;
}

TEST(PipelineIntegration, CopyLoopSamplesLandInCopyImage) {
  WorkloadFactory factory(/*scale=*/0.25);
  Workload workload = factory.McCalpin(StreamKernel::kCopy);
  System system(DenseSamplingConfig(ProfilingMode::kCycles));
  ASSERT_TRUE(workload.Instantiate(&system).ok());
  SystemResult result = system.Run();
  ASSERT_FALSE(result.had_error);
  EXPECT_GT(result.samples[static_cast<int>(EventType::kCycles)], 500u);

  const ImageProfile* profile =
      system.daemon()->FindProfile("mccalpin_copy", EventType::kCycles);
  ASSERT_NE(profile, nullptr);
  EXPECT_GT(profile->total_samples(), 100u);
  // The daemon attributed virtually everything (paper: unknown << 1%).
  EXPECT_LT(system.daemon()->UnknownSampleFraction(), 0.01);
}

TEST(PipelineIntegration, SamplesAreProportionalToHeadCycles) {
  // The fundamental sampling property (Section 4.1.2): sample counts per
  // instruction are statistically proportional to head-of-queue cycles.
  WorkloadFactory factory(/*scale=*/0.25);
  Workload workload = factory.McCalpin(StreamKernel::kCopy);
  System system(DenseSamplingConfig(ProfilingMode::kCycles));
  ASSERT_TRUE(workload.Instantiate(&system).ok());
  SystemResult result = system.Run();
  ASSERT_FALSE(result.had_error);

  auto image = workload.processes[0].images[0];
  const ImageProfile* profile =
      system.daemon()->FindProfile("mccalpin_copy", EventType::kCycles);
  ASSERT_NE(profile, nullptr);
  const ImageTruth* truth = system.kernel().ground_truth().FindImage(image.get());
  ASSERT_NE(truth, nullptr);

  double period = profile->mean_period();
  ASSERT_GT(period, 0);
  // For instructions with many samples, samples * period should be within
  // 30% of true head cycles.
  int checked = 0;
  for (size_t i = 0; i < truth->instructions.size(); ++i) {
    uint64_t samples = profile->SamplesAt(i * kInstrBytes);
    if (samples < 60) continue;
    double estimated_cycles = static_cast<double>(samples) * period;
    double true_cycles = static_cast<double>(truth->instructions[i].head_cycles);
    ASSERT_GT(true_cycles, 0);
    EXPECT_NEAR(estimated_cycles / true_cycles, 1.0, 0.35)
        << "instruction index " << i;
    ++checked;
  }
  EXPECT_GE(checked, 3);
}

TEST(PipelineIntegration, ProfilesPersistToDatabase) {
  ScratchDir scratch;
  WorkloadFactory factory(/*scale=*/0.1);
  Workload workload = factory.X11PerfLike();
  SystemConfig config = DenseSamplingConfig(ProfilingMode::kDefault);
  config.db_root = scratch.path() + "/db";
  System system(config);
  ASSERT_TRUE(workload.Instantiate(&system).ok());
  SystemResult result = system.Run();
  ASSERT_FALSE(result.had_error);

  ProfileDatabase* db = system.database();
  ASSERT_NE(db, nullptr);
  auto files = db->ListProfiles(db->current_epoch());
  ASSERT_TRUE(files.ok());
  EXPECT_GE(files.value().size(), 2u);  // several images, cycles+imiss events
  EXPECT_GT(db->DiskUsageBytes(), 0u);

  // Round trip one profile.
  auto on_disk = db->ReadProfile(db->current_epoch(), "Xserver", EventType::kCycles);
  ASSERT_TRUE(on_disk.ok()) << on_disk.status().ToString();
  EXPECT_GT(on_disk.value().total_samples(), 0u);
}

TEST(PipelineIntegration, BaseModeHasNoProfilingMachinery) {
  WorkloadFactory factory(/*scale=*/0.05);
  Workload workload = factory.BranchHeavy();
  System system(SystemConfig{});
  ASSERT_TRUE(workload.Instantiate(&system).ok());
  SystemResult result = system.Run();
  ASSERT_FALSE(result.had_error);
  EXPECT_EQ(system.daemon(), nullptr);
  EXPECT_EQ(result.samples[0], 0u);
  EXPECT_GT(result.elapsed_cycles, 0u);
}

TEST(PipelineIntegration, ProfilingOverheadIsSmallAtPaperPeriods) {
  // With the paper's 60K-64K CYCLES period, slowdown should be low single
  // digit percent (Table 3 reports 1-3%).
  WorkloadFactory base_factory(/*scale=*/0.2);
  Workload workload = base_factory.SpecIntLike();
  System base(SystemConfig{});
  ASSERT_TRUE(workload.Instantiate(&base).ok());
  uint64_t base_cycles = base.Run().elapsed_cycles;

  WorkloadFactory prof_factory(/*scale=*/0.2);
  Workload prof_workload = prof_factory.SpecIntLike();
  SystemConfig config;
  config.mode = ProfilingMode::kCycles;  // paper periods (no scaling)
  System profiled(config);
  ASSERT_TRUE(prof_workload.Instantiate(&profiled).ok());
  SystemResult result = profiled.Run();

  double slowdown = (static_cast<double>(result.busy_cycles_with_daemon) -
                     static_cast<double>(base_cycles)) /
                    static_cast<double>(base_cycles);
  EXPECT_GT(slowdown, -0.02);
  EXPECT_LT(slowdown, 0.10);
}

TEST(PipelineIntegration, MultiprocessorDistinctPidsProfileCleanly) {
  WorkloadFactory factory(/*scale=*/0.05);
  Workload workload = factory.DssLike(4);
  System system(DenseSamplingConfig(ProfilingMode::kCycles, 4));
  ASSERT_TRUE(workload.Instantiate(&system).ok());
  SystemResult result = system.Run();
  ASSERT_FALSE(result.had_error);
  const ImageProfile* profile = system.daemon()->FindProfile("dss", EventType::kCycles);
  ASSERT_NE(profile, nullptr);
  EXPECT_GT(profile->total_samples(), 100u);
  EXPECT_LT(system.daemon()->UnknownSampleFraction(), 0.01);
}

}  // namespace
}  // namespace dcpi
