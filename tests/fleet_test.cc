// Fleet view tests: merge-on-read determinism under host permutation,
// compaction equivalence with merge-on-read (and with itself across jobs
// counts), 1-host fleets matching plain single-database reads, the
// compactor's provenance sidecar, the mixed-seal epoch rules, canonical
// shard directory names, and the one read rule for an unreadable shard
// profile.

#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <string>
#include <vector>

#include "src/isa/assembler.h"
#include "src/profiledb/fleet.h"
#include "src/support/binary_io.h"
#include "src/tools/dcpiprof.h"
#include "tests/scratch_dir.h"

namespace dcpi {
namespace {

class FleetTest : public ::testing::Test {
 protected:
  // Writes `profiles` as one sealed epoch of shard host_<id> under `fleet`.
  static void WriteShard(const std::string& fleet, uint32_t id,
                         const std::vector<ImageProfile>& profiles) {
    ProfileDatabase db(fleet + "/host_" + std::to_string(id));
    ASSERT_TRUE(db.NewEpoch().ok());
    for (const ImageProfile& p : profiles) ASSERT_TRUE(db.ReplaceProfile(p).ok());
    ASSERT_TRUE(db.SealCurrentEpoch().ok());
  }

  static ImageProfile MakeProfile(double period,
                                  std::vector<std::pair<uint64_t, uint64_t>> counts) {
    ImageProfile p("app", EventType::kCycles, period);
    for (const auto& [offset, n] : counts) p.AddSamples(offset, n);
    return p;
  }

  ScratchDir scratch_;
  const std::string root_ = scratch_.path();
};

TEST_F(FleetTest, MergeIsByteIdenticalUnderHostPermutation) {
  // The same three per-host profiles, assigned to host ids in two different
  // orders: the fleet-wide merge must not depend on which host held what
  // (the weighted-period fold sorts its contributions before summing).
  ImageProfile a = MakeProfile(1000, {{0, 10}, {8, 5}});
  ImageProfile b = MakeProfile(1200, {{0, 1}, {16, 7}});
  ImageProfile c = MakeProfile(900, {{4, 3}});

  std::string fleet1 = root_ + "/f1";
  WriteShard(fleet1, 0, {a});
  WriteShard(fleet1, 1, {b});
  WriteShard(fleet1, 2, {c});
  std::string fleet2 = root_ + "/f2";
  WriteShard(fleet2, 0, {c});
  WriteShard(fleet2, 1, {a});
  WriteShard(fleet2, 2, {b});

  FleetView view1(fleet1), view2(fleet2);
  ASSERT_EQ(view1.num_hosts(), 3u);
  Result<ImageProfile> m1 = view1.ReadProfile({0}, "app", EventType::kCycles);
  Result<ImageProfile> m2 = view2.ReadProfile({0}, "app", EventType::kCycles);
  ASSERT_TRUE(m1.ok()) << m1.status().ToString();
  ASSERT_TRUE(m2.ok()) << m2.status().ToString();
  EXPECT_EQ(SerializeProfile(m1.value()), SerializeProfile(m2.value()));
  EXPECT_EQ(m1.value().total_samples(), 26u);
}

TEST_F(FleetTest, SingleHostFleetReadsBitExact) {
  // A 1-host fleet is the degenerate case: merge-on-read must return the
  // shard's profile byte-for-byte (no (period * weight) / weight rounding).
  ImageProfile a = MakeProfile(997.25, {{0, 3}, {24, 11}});
  WriteShard(root_, 0, {a});
  FleetView view(root_);
  ASSERT_EQ(view.num_hosts(), 1u);
  Result<ImageProfile> merged = view.ReadProfile({0}, "app", EventType::kCycles);
  ASSERT_TRUE(merged.ok());
  ProfileDatabase shard(root_ + "/host_0", DbOpenMode::kReadOnly);
  Result<ImageProfile> direct = shard.ReadProfile(0, "app", EventType::kCycles);
  ASSERT_TRUE(direct.ok());
  EXPECT_EQ(SerializeProfile(merged.value()), SerializeProfile(direct.value()));
}

TEST_F(FleetTest, EmptyShardProfilesMergeToFiniteMeanPeriod) {
  // Sealed-but-idle epochs produce profiles with zero samples; merging
  // them must not divide 0 by 0.
  WriteShard(root_, 0, {MakeProfile(1000, {})});
  WriteShard(root_, 1, {MakeProfile(2000, {})});
  FleetView view(root_);
  Result<ImageProfile> merged = view.ReadProfile({0}, "app", EventType::kCycles);
  ASSERT_TRUE(merged.ok());
  EXPECT_EQ(merged.value().total_samples(), 0u);
  EXPECT_TRUE(std::isfinite(merged.value().mean_period()));
  EXPECT_DOUBLE_EQ(merged.value().mean_period(), 1500.0);
}

TEST_F(FleetTest, CompactionMatchesMergeOnReadAndIsJobsInvariant) {
  WriteShard(root_, 0, {MakeProfile(1000, {{0, 10}, {8, 5}})});
  WriteShard(root_, 1, {MakeProfile(1250, {{0, 2}, {32, 9}})});
  WriteShard(root_, 2, {MakeProfile(800, {{16, 4}})});
  FleetView view(root_);

  std::string out1 = root_ + "/merged_j1";
  std::string out8 = root_ + "/merged_j8";
  {
    ProfileDatabase db1(out1), db8(out8);
    ASSERT_TRUE(CompactFleet(view, &db1, {0}, 1).ok());
    ASSERT_TRUE(CompactFleet(view, &db8, {0}, 8).ok());
  }

  // The materialized profile equals merge-on-read, for any jobs count.
  Result<ImageProfile> on_read = view.ReadProfile({0}, "app", EventType::kCycles);
  ASSERT_TRUE(on_read.ok());
  for (const std::string& out : {out1, out8}) {
    ProfileDatabase merged(out, DbOpenMode::kReadOnly);
    EXPECT_TRUE(merged.IsSealed(0));
    Result<ImageProfile> compacted = merged.ReadProfile(0, "app", EventType::kCycles);
    ASSERT_TRUE(compacted.ok()) << out;
    EXPECT_EQ(SerializeProfile(compacted.value()), SerializeProfile(on_read.value()));
  }

  // Byte-compare the epoch directories' profile files across jobs counts.
  std::vector<uint8_t> bytes1, bytes8;
  for (const auto& entry :
       std::filesystem::directory_iterator(out1 + "/epoch_0")) {
    if (entry.path().extension() != ".prof") continue;
    ASSERT_TRUE(ReadFile(entry.path().string(), &bytes1).ok());
    ASSERT_TRUE(
        ReadFile(out8 + "/epoch_0/" + entry.path().filename().string(), &bytes8)
            .ok());
    EXPECT_EQ(bytes1, bytes8) << entry.path();
  }

  // The provenance sidecar names every contributing host with its samples.
  std::vector<uint8_t> provenance;
  ASSERT_TRUE(ReadFile(out1 + "/epoch_0/.provenance", &provenance).ok());
  std::string text(provenance.begin(), provenance.end());
  EXPECT_EQ(text, "host_0 15\nhost_1 11\nhost_2 4\n");
}

TEST_F(FleetTest, CompactionSkipsAlreadySealedOutputEpochs) {
  WriteShard(root_, 0, {MakeProfile(1000, {{0, 7}})});
  FleetView view(root_);
  std::string out = root_ + "/merged";
  ProfileDatabase out_db(out);
  ASSERT_TRUE(CompactFleet(view, &out_db, {0}).ok());
  // A second pass over the same epoch is a no-op, not a sealed-epoch error.
  ASSERT_TRUE(CompactFleet(view, &out_db, {0}).ok());
  ProfileDatabase merged(out, DbOpenMode::kReadOnly);
  Result<ImageProfile> profile = merged.ReadProfile(0, "app", EventType::kCycles);
  ASSERT_TRUE(profile.ok());
  EXPECT_EQ(profile.value().total_samples(), 7u);
}

TEST_F(FleetTest, MixedSealEpochsAreNotFleetSealed) {
  // host_0 sealed epoch 0; host_1 has epoch 0 still open: the fleet must
  // not offer epoch 0 as a stable merge unit.
  WriteShard(root_, 0, {MakeProfile(1000, {{0, 1}})});
  {
    ProfileDatabase open_shard(root_ + "/host_1");
    ASSERT_TRUE(open_shard.NewEpoch().ok());
    ASSERT_TRUE(open_shard.ReplaceProfile(MakeProfile(1000, {{0, 2}})).ok());
    // not sealed
  }
  FleetView view(root_);
  EXPECT_EQ(view.ListEpochs(), (std::vector<uint32_t>{0}));
  EXPECT_TRUE(view.ListSealedEpochs().empty());
}

TEST_F(FleetTest, FleetProcedureRowsMatchPlainListingForOneHost) {
  auto image = Assemble("app", 0x0100'0000,
                        ".proc hot\nnop\nnop\n.endp\n.proc cold\nnop\n.endp\n")
                   .value();
  ImageProfile cycles = MakeProfile(1000, {{0, 30}, {8, 12}});
  std::vector<ProfInput> inputs = {{image, &cycles, nullptr}};
  std::vector<ProcedureRow> plain = ListProcedures(inputs);
  std::vector<FleetProcedureRow> fleet = ListFleetProcedures({inputs});
  ASSERT_EQ(fleet.size(), plain.size());
  for (size_t i = 0; i < plain.size(); ++i) {
    EXPECT_EQ(fleet[i].fleet.procedure, plain[i].procedure);
    EXPECT_EQ(fleet[i].fleet.cycles_samples, plain[i].cycles_samples);
    EXPECT_DOUBLE_EQ(fleet[i].fleet.cycles_pct, plain[i].cycles_pct);
    ASSERT_EQ(fleet[i].host_samples.size(), 1u);
    EXPECT_EQ(fleet[i].host_samples[0], plain[i].cycles_samples);
  }
}

TEST_F(FleetTest, FleetListingHasByHostBreakdown) {
  auto image = Assemble("app", 0x0100'0000,
                        ".proc hot\nnop\nnop\n.endp\n")
                   .value();
  ImageProfile host0 = MakeProfile(1000, {{0, 30}});
  ImageProfile host1 = MakeProfile(1000, {{0, 12}});
  std::vector<std::vector<ProfInput>> per_host = {
      {{image, &host0, nullptr}}, {{image, &host1, nullptr}}};
  std::vector<FleetProcedureRow> rows = ListFleetProcedures(per_host);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].fleet.cycles_samples, 42u);
  EXPECT_EQ(rows[0].host_samples, (std::vector<uint64_t>{30, 12}));
  std::string listing =
      FormatFleetProcedureListing(rows, {"host_0", "host_1"}, "imiss");
  EXPECT_NE(listing.find("hosts: host_0 host_1"), std::string::npos);
  EXPECT_NE(listing.find("30/12"), std::string::npos);
}

TEST_F(FleetTest, CorruptShardProfileIsSkippedLikeCompaction) {
  // Every reader skips a profile whose read fails. With host_1's file
  // corrupt, merge-on-read, the compacted database and a plain one-shard
  // view of host_0 must all read host_0's profile.
  ImageProfile a = MakeProfile(1000, {{0, 10}, {8, 5}});
  WriteShard(root_, 0, {a});
  WriteShard(root_, 1, {MakeProfile(1200, {{0, 4}})});
  const std::string path = root_ + "/host_1/epoch_0/" +
                           ProfileDatabase::ProfileFileName("app", EventType::kCycles);
  std::vector<uint8_t> bytes;
  ASSERT_TRUE(ReadFile(path, &bytes).ok());
  bytes[bytes.size() / 2] ^= 0x01;
  ASSERT_TRUE(WriteFileAtomic(path, bytes).ok());

  FleetView view(root_);
  ASSERT_EQ(view.num_hosts(), 2u);
  Result<ImageProfile> on_read = view.ReadProfile({0}, "app", EventType::kCycles);
  ASSERT_TRUE(on_read.ok()) << on_read.status().ToString();
  ProfileDatabase out_db(root_ + "/merged");
  ASSERT_TRUE(CompactFleet(view, &out_db, {0}).ok());
  ProfileDatabase merged(root_ + "/merged", DbOpenMode::kReadOnly);
  Result<ImageProfile> compacted = merged.ReadProfile(0, "app", EventType::kCycles);
  ASSERT_TRUE(compacted.ok());
  FleetView host0 = FleetView::SingleShard(root_ + "/host_0");
  Result<ImageProfile> plain = host0.ReadProfile({0}, "app", EventType::kCycles);
  ASSERT_TRUE(plain.ok());
  EXPECT_EQ(SerializeProfile(on_read.value()), SerializeProfile(a));
  EXPECT_EQ(SerializeProfile(compacted.value()), SerializeProfile(a));
  EXPECT_EQ(SerializeProfile(plain.value()), SerializeProfile(a));
}

TEST_F(FleetTest, PaddedOrOverflowingHostDirsAreIgnored) {
  // Only the canonical host_<N> spelling is a shard. host_01 would alias
  // host_1 and host_4294967296 would wrap to host_0, merging a stray
  // directory's profiles into the fleet.
  for (const char* name : {"host_0", "host_1", "host_01", "host_4294967296"}) {
    ProfileDatabase db(root_ + "/" + name);
    ASSERT_TRUE(db.ReplaceProfile(MakeProfile(1000, {{0, 1}})).ok());
    ASSERT_TRUE(db.SealCurrentEpoch().ok());
  }
  FleetView view(root_);
  EXPECT_EQ(view.host_names(), (std::vector<std::string>{"host_0", "host_1"}));
  Result<ImageProfile> merged = view.ReadProfile({0}, "app", EventType::kCycles);
  ASSERT_TRUE(merged.ok());
  EXPECT_EQ(merged.value().total_samples(), 2u);
}

TEST_F(FleetTest, HostDirsSortNumerically) {
  // host_10 must come after host_2, and stray directories are ignored.
  for (uint32_t id : {10u, 2u, 0u}) {
    WriteShard(root_, id, {MakeProfile(1000, {{0, 1}})});
  }
  std::filesystem::create_directories(root_ + "/not_a_host");
  FleetView view(root_);
  EXPECT_EQ(view.host_names(),
            (std::vector<std::string>{"host_0", "host_2", "host_10"}));
  EXPECT_EQ(FleetView(root_ + "/not_a_host").num_hosts(), 0u);
}

}  // namespace
}  // namespace dcpi
