// Collection-session tests: RunSession makes the same System calls a
// caller would make by hand, stops at the first failure without sealing,
// and RunFleet's background compactor leaves what a compaction pass over
// the finished shards would write.
//
// These tests run under TSan and ASan in scripts/check.sh (the Session
// filter): the fleet case runs two host threads and the compactor at once.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/isa/assembler.h"
#include "src/profiledb/fleet.h"
#include "src/workloads/session.h"
#include "src/workloads/workloads.h"
#include "tests/scratch_dir.h"

namespace dcpi {
namespace {

// dcpi_sim --continuous's collection settings.
SystemConfig ContinuousConfig(const std::string& db_root) {
  SystemConfig config;
  config.mode = ProfilingMode::kCycles;
  config.period_scale = 1.0 / 16;
  config.db_root = db_root;
  config.daemon_flush_interval = config.daemon_drain_interval;
  config.roll_on_map_change = true;
  return config;
}

// Every file under `root` (result caches excepted), by relative path.
std::map<std::string, std::string> TreeBytes(const std::string& root) {
  std::map<std::string, std::string> files;
  for (const auto& entry : std::filesystem::recursive_directory_iterator(root)) {
    std::string relative = std::filesystem::relative(entry.path(), root).string();
    if (!entry.is_regular_file() || relative.find(".cache") != std::string::npos) {
      continue;
    }
    std::ifstream in(entry.path(), std::ios::binary);
    files[relative].assign(std::istreambuf_iterator<char>(in), {});
  }
  return files;
}

TEST(Session, CappedRollingSessionMatchesHandMadeCalls) {
  ScratchDir scratch;
  WorkloadFactory factory(/*scale=*/0.25);
  const Workload workload = factory.McCalpin(StreamKernel::kCopy);
  constexpr uint64_t kSegmentCycles = 3'000'000;  // well short of one copy run

  System reference(ContinuousConfig(scratch.path() + "/reference"));
  for (int segment = 0; segment < 3; ++segment) {
    ASSERT_TRUE(workload.Instantiate(&reference).ok());
    SystemResult result =
        reference.Run(reference.kernel().ElapsedCycles() + kSegmentCycles);
    ASSERT_FALSE(result.had_error);
    if (segment < 2) {
      ASSERT_TRUE(reference.RollEpoch().ok());
    }
  }
  ASSERT_TRUE(reference.SealCurrentEpoch().ok());

  System system(ContinuousConfig(scratch.path() + "/db"));
  SessionPlan plan;
  plan.segments = 3;
  plan.segment_cycles = kSegmentCycles;
  plan.roll_between_segments = true;
  plan.images_dir = scratch.path() + "/images";
  SessionResult session = RunSession(&system, workload, plan);
  ASSERT_TRUE(session.status.ok()) << session.status.ToString();

  EXPECT_EQ(session.roll_ms.size(), 2u);
  EXPECT_EQ(session.result.elapsed_cycles, reference.kernel().ElapsedCycles());
  // The cap bound: the first segment's copy was still running at the end.
  EXPECT_NE(system.kernel().processes().front()->state(), ProcessState::kDone);
  EXPECT_GE(session.sealed, 3u);
  EXPECT_EQ(session.sealed, session.epochs);
  std::map<std::string, std::string> db = TreeBytes(scratch.path() + "/db");
  ASSERT_FALSE(db.empty());
  EXPECT_TRUE(db == TreeBytes(scratch.path() + "/reference"));
  EXPECT_EQ(TreeBytes(plan.images_dir).size(),
            system.kernel().ground_truth().images().size());
}

TEST(Session, FaultingSegmentStopsTheSessionUnsealed) {
  // Spins, then loads from address 0: a bad-memory exit.
  Result<std::shared_ptr<ExecutableImage>> image = Assemble("late_fault", 0x0100'0000, R"(
        .text
        .proc main
        li    r3, 2000000
spin:
        subq  r3, 1, r3
        bne   r3, spin
        ldq   r4, 0(r31)
        halt
        .endp
)");
  ASSERT_TRUE(image.ok()) << image.status().ToString();
  Workload workload;
  workload.processes.push_back({"late_fault", {image.value()}, "main"});

  // How long one copy runs alone before it faults.
  SystemConfig config;
  config.mode = ProfilingMode::kCycles;
  config.period_scale = 1.0 / 16;
  System alone(config);
  ASSERT_TRUE(workload.Instantiate(&alone).ok());
  SystemResult calibration = alone.Run();
  ASSERT_TRUE(calibration.had_error);
  const uint64_t fault_cycles = calibration.elapsed_cycles;

  // Segment 0 stops at 0.8 of that; in segment 1 the first copy shares the
  // CPU with a second one and faults.
  ScratchDir scratch;
  config.db_root = scratch.path() + "/db";
  System system(config);
  SessionPlan plan;
  plan.segments = 3;
  plan.segment_cycles = fault_cycles * 4 / 5;
  plan.roll_between_segments = true;
  SessionResult session = RunSession(&system, workload, plan);

  EXPECT_FALSE(session.status.ok());
  EXPECT_TRUE(session.result.had_error);
  EXPECT_EQ(session.roll_ms.size(), 1u);
  EXPECT_EQ(system.kernel().processes().size(), 2u);  // segment 2 never ran
  ProfileDatabase db(config.db_root, DbOpenMode::kReadOnly);
  EXPECT_EQ(db.ListEpochs(), (std::vector<uint32_t>{0, 1}));
  EXPECT_EQ(db.ListSealedEpochs(), std::vector<uint32_t>{0});  // the roll's seal only
  EXPECT_EQ(session.epochs, 2u);
  EXPECT_EQ(session.sealed, 1u);
}

TEST(Session, FleetCompactorMatchesACompactionOfTheFinishedShards) {
  ScratchDir scratch;
  WorkloadFactory factory(/*scale=*/0.25);
  const Workload workload = factory.McCalpin(StreamKernel::kCopy);
  const std::string root = scratch.path() + "/db";
  SessionPlan plan;
  plan.segments = 2;
  plan.segment_cycles = 3'000'000;
  plan.roll_between_segments = true;
  plan.images_dir = scratch.path() + "/images";

  FleetResult fleet = RunFleet(ContinuousConfig(root), workload, plan, 2, /*compact=*/true);
  ASSERT_EQ(fleet.hosts.size(), 2u);
  for (const SessionResult& host : fleet.hosts) {
    ASSERT_TRUE(host.status.ok()) << host.status.ToString();
    EXPECT_GE(host.sealed, 2u);
  }
  ASSERT_TRUE(fleet.compaction.ok()) << fleet.compaction.ToString();

  FleetView view(root);
  ASSERT_EQ(view.host_names(), (std::vector<std::string>{FleetHostDir(0), FleetHostDir(1)}));
  const std::string recompacted = scratch.path() + "/recompacted";
  ProfileDatabase recompacted_db(recompacted);
  ASSERT_TRUE(CompactFleet(view, &recompacted_db, view.ListSealedEpochs()).ok());
  std::map<std::string, std::string> merged = TreeBytes(root + "/merged");
  ASSERT_FALSE(merged.empty());
  EXPECT_TRUE(merged == TreeBytes(recompacted));
  EXPECT_FALSE(TreeBytes(plan.images_dir).empty());

  // Only host 0 saves images: below a regular file no image directory can
  // be made, and that fails host 0 alone.
  const std::string blocker = scratch.path() + "/blocker";
  std::ofstream(blocker) << "not a directory\n";
  plan.segments = 1;
  plan.images_dir = blocker + "/images";
  FleetResult blocked =
      RunFleet(ContinuousConfig(scratch.path() + "/blocked"), workload, plan, 2,
               /*compact=*/false);
  ASSERT_EQ(blocked.hosts.size(), 2u);
  EXPECT_FALSE(blocked.hosts[0].status.ok());
  EXPECT_TRUE(blocked.hosts[1].status.ok()) << blocked.hosts[1].status.ToString();
  EXPECT_EQ(blocked.hosts[0].sealed, 0u);
}

}  // namespace
}  // namespace dcpi
