// Profile database and daemon tests: serialization round trips (property),
// compression vs fixed-width, epochs and their directory names, merging and
// the cross-epoch fold, PC resolution, and unknown sample accounting.

#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <vector>

#include "src/daemon/daemon.h"
#include "src/isa/assembler.h"
#include "src/profiledb/database.h"
#include "src/support/rng.h"
#include "tests/scratch_dir.h"

namespace dcpi {
namespace {

class DbTest : public ::testing::Test {
 protected:
  ScratchDir scratch_;
  const std::string root_ = scratch_.path();
};

TEST_F(DbTest, ProfileSerializationRoundTripProperty) {
  SplitMix64 rng(3);
  for (int trial = 0; trial < 50; ++trial) {
    ImageProfile profile("img_" + std::to_string(trial), EventType::kImiss,
                         4096.0 + trial);
    int entries = static_cast<int>(rng.NextBelow(200));
    for (int i = 0; i < entries; ++i) {
      profile.AddSamples(rng.NextBelow(1 << 20) * 4, 1 + rng.NextBelow(100000));
    }
    Result<ImageProfile> restored = DeserializeProfile(SerializeProfile(profile));
    ASSERT_TRUE(restored.ok());
    EXPECT_EQ(restored.value().image_name(), profile.image_name());
    EXPECT_EQ(restored.value().event(), profile.event());
    EXPECT_EQ(restored.value().mean_period(), profile.mean_period());
    EXPECT_EQ(restored.value().counts(), profile.counts());
  }
}

TEST_F(DbTest, VarintFormatCompressesVsFixedWidth) {
  // Dense consecutive offsets with modest counts: the common shape of a
  // hot procedure. The paper's improved format gets ~3x.
  ImageProfile profile("hot", EventType::kCycles, 62000);
  for (uint64_t off = 0; off < 4096; off += 4) profile.AddSamples(off, 50 + off % 100);
  size_t varint_size = SerializeProfile(profile).size();
  size_t fixed_size = SerializeProfileFixedWidth(profile).size();
  EXPECT_LT(varint_size * 3, fixed_size + 100);
}

TEST_F(DbTest, EpochsAreSeparate) {
  ProfileDatabase db(root_);
  ImageProfile a("img", EventType::kCycles, 1000);
  a.AddSamples(0, 1);
  ASSERT_TRUE(db.ReplaceProfile(a).ok());
  ASSERT_TRUE(db.NewEpoch().ok());
  ImageProfile b("img", EventType::kCycles, 1000);
  b.AddSamples(0, 7);
  ASSERT_TRUE(db.ReplaceProfile(b).ok());
  EXPECT_EQ(db.ReadProfile(0, "img", EventType::kCycles).value().SamplesAt(0), 1u);
  EXPECT_EQ(db.ReadProfile(1, "img", EventType::kCycles).value().SamplesAt(0), 7u);
  EXPECT_GT(db.DiskUsageBytes(), 0u);
}

TEST_F(DbTest, FileNamesEscapeSlashesAndUnderscores) {
  EXPECT_EQ(ProfileDatabase::ProfileFileName("/usr/shlib/libm.so", EventType::kCycles),
            "_susr_sshlib_slibm.so__cycles.prof");
  // A plain '/'-to-'_' sanitizer would map "a/b" and "a_b" to the same
  // file; the escaping scheme must keep them distinct.
  EXPECT_NE(ProfileDatabase::ProfileFileName("a/b", EventType::kCycles),
            ProfileDatabase::ProfileFileName("a_b", EventType::kCycles));
  EXPECT_NE(ProfileDatabase::ProfileFileName("a_sb", EventType::kCycles),
            ProfileDatabase::ProfileFileName("a/b", EventType::kCycles));
}

TEST_F(DbTest, DistinctImagesNeverShareAFile) {
  ProfileDatabase db(root_);
  ImageProfile slash("a/b", EventType::kCycles, 1000);
  slash.AddSamples(0, 5);
  ImageProfile underscore("a_b", EventType::kCycles, 1000);
  underscore.AddSamples(0, 9);
  ASSERT_TRUE(db.ReplaceProfile(slash).ok());
  ASSERT_TRUE(db.ReplaceProfile(underscore).ok());
  EXPECT_EQ(db.ReadProfile(0, "a/b", EventType::kCycles).value().SamplesAt(0), 5u);
  EXPECT_EQ(db.ReadProfile(0, "a_b", EventType::kCycles).value().SamplesAt(0), 9u);
}

TEST_F(DbTest, MergeWeightsMeanPeriodBySamples) {
  // Mux-mode merges can carry different periods; the merged period must be
  // the sample-weighted mean so samples-to-cycles scaling stays correct.
  ImageProfile a("img", EventType::kCycles, 1000);
  a.AddSamples(0, 10);
  ImageProfile b("img", EventType::kCycles, 4000);
  b.AddSamples(4, 30);
  a.Merge(b);
  EXPECT_NEAR(a.mean_period(), (1000.0 * 10 + 4000.0 * 30) / 40, 1e-9);
  EXPECT_EQ(a.SamplesAt(0), 10u);
  EXPECT_EQ(a.SamplesAt(4), 30u);

  // A zero period still defers to the other side's.
  ImageProfile c("img", EventType::kCycles, 0);
  c.AddSamples(0, 1);
  c.Merge(b);
  EXPECT_EQ(c.mean_period(), 4000.0);
}

TEST_F(DbTest, MergeOfEmptyProfilesKeepsFinitePeriod) {
  // Pins the zero-total-weight guard: merging two sample-less profiles
  // (sealed-but-idle epochs, empty fleet shards) must not divide by zero —
  // the existing period is kept, never replaced with NaN.
  ImageProfile a("img", EventType::kCycles, 1000);
  ImageProfile b("img", EventType::kCycles, 4000);
  a.Merge(b);
  EXPECT_EQ(a.total_samples(), 0u);
  EXPECT_TRUE(std::isfinite(a.mean_period()));
  EXPECT_EQ(a.mean_period(), 1000.0);

  // And an empty right-hand side never disturbs a populated left.
  ImageProfile c("img", EventType::kCycles, 2000);
  c.AddSamples(8, 5);
  c.Merge(ImageProfile("img", EventType::kCycles, 0));
  EXPECT_EQ(c.mean_period(), 2000.0);
  EXPECT_EQ(c.total_samples(), 5u);
}

TEST_F(DbTest, ReopeningPopulatedRootResumesEpochNumbering) {
  {
    ProfileDatabase db(root_);
    ImageProfile a("img", EventType::kCycles, 1000);
    a.AddSamples(0, 5);
    ASSERT_TRUE(db.ReplaceProfile(a).ok());
  }
  ProfileDatabase db(root_);
  EXPECT_EQ(db.scan_report().next_epoch, 1u);
  ImageProfile b("img", EventType::kCycles, 1000);
  b.AddSamples(0, 3);
  ASSERT_TRUE(db.ReplaceProfile(b).ok());
  // The second run's samples land in a fresh epoch, not merged into the
  // first run's epoch 0.
  EXPECT_EQ(db.ReadProfile(0, "img", EventType::kCycles).value().SamplesAt(0), 5u);
  EXPECT_EQ(db.ReadProfile(1, "img", EventType::kCycles).value().SamplesAt(0), 3u);
}

TEST_F(DbTest, ReadMergedFoldsInEpochOrderAndSkipsUnreadableEpochs) {
  ProfileDatabase db(root_);
  for (uint64_t samples : {5u, 3u, 7u}) {
    ASSERT_TRUE(db.NewEpoch().ok());
    ImageProfile p("img", EventType::kCycles, 1000.0 * samples);
    p.AddSamples(0, samples);
    ASSERT_TRUE(db.ReplaceProfile(p).ok());
  }
  // The fold is ascending whatever order the epochs are named in: the
  // sample-weighted period depends on the merge order.
  Result<ImageProfile> forward = db.ReadMerged({0, 1, 2}, "img", EventType::kCycles);
  Result<ImageProfile> backward = db.ReadMerged({2, 0, 1}, "img", EventType::kCycles);
  ASSERT_TRUE(forward.ok());
  ASSERT_TRUE(backward.ok());
  EXPECT_EQ(SerializeProfile(forward.value()), SerializeProfile(backward.value()));
  EXPECT_EQ(forward.value().SamplesAt(0), 15u);

  // A corrupt epoch is skipped, not an error; missing epochs are too.
  std::string path =
      root_ + "/epoch_1/" + ProfileDatabase::ProfileFileName("img", EventType::kCycles);
  std::filesystem::resize_file(path, std::filesystem::file_size(path) - 1);
  Result<ImageProfile> skipped = db.ReadMerged({0, 1, 2, 9}, "img", EventType::kCycles);
  ASSERT_TRUE(skipped.ok());
  EXPECT_EQ(skipped.value().SamplesAt(0), 12u);
  Result<ImageProfile> none = db.ReadMerged({1, 9}, "img", EventType::kCycles);
  ASSERT_FALSE(none.ok());
  EXPECT_EQ(none.status().code(), StatusCode::kNotFound);
}

TEST_F(DbTest, StrayEpochDirNamesAreIgnored) {
  // Only the canonical epoch_<N> spelling is an epoch: a padded or
  // overflowing name must not alias epoch 1, or every reader would merge
  // epoch 1 twice and the writer would skip an epoch number.
  {
    ProfileDatabase db(root_);
    ImageProfile a("img", EventType::kCycles, 1000);
    a.AddSamples(0, 5);
    ASSERT_TRUE(db.ReplaceProfile(a).ok());
    ASSERT_TRUE(db.SealCurrentEpoch().ok());
  }
  for (const char* stray : {"epoch_01", "epoch_4294967297", "epoch_", "epoch_1x"}) {
    std::filesystem::create_directories(root_ + "/" + stray);
  }
  ProfileDatabase read_only(root_, DbOpenMode::kReadOnly);
  EXPECT_EQ(read_only.ListEpochs(), (std::vector<uint32_t>{0}));
  EXPECT_EQ(read_only.ListSealedEpochs(), (std::vector<uint32_t>{0}));
  ProfileDatabase db(root_);
  EXPECT_EQ(db.scan_report().epochs_found, 1u);
  EXPECT_EQ(db.scan_report().next_epoch, 1u);
  Result<uint32_t> next = db.NewEpoch();
  ASSERT_TRUE(next.ok());
  EXPECT_EQ(next.value(), 1u);
}

TEST_F(DbTest, ReadMissingProfileFails) {
  ProfileDatabase db(root_);
  EXPECT_FALSE(db.ReadProfile(0, "ghost", EventType::kCycles).ok());
}

// ---- Daemon ----

std::shared_ptr<ExecutableImage> TinyImage(const std::string& name, uint64_t base) {
  auto image = Assemble(name, base, "nop\nnop\nnop\nnop\nhalt\n");
  return image.value();
}

TEST(Daemon, ResolvesPcsThroughLoadMaps) {
  Daemon daemon(nullptr, nullptr);
  auto image_a = TinyImage("libA", 0x0100'0000);
  auto image_b = TinyImage("libB", 0x0200'0000);
  std::vector<LoaderEvent> events;
  events.push_back({LoaderEvent::Kind::kLoadImage, 7, image_a});
  events.push_back({LoaderEvent::Kind::kLoadImage, 7, image_b});
  daemon.ProcessLoaderEvents(std::move(events));

  std::vector<SampleRecord> records;
  records.push_back({{7, 0x0100'0004, EventType::kCycles}, 10});
  records.push_back({{7, 0x0200'0008, EventType::kCycles}, 5});
  records.push_back({{7, 0x0300'0000, EventType::kCycles}, 2});  // unmapped
  records.push_back({{9, 0x0100'0004, EventType::kCycles}, 3});  // wrong pid
  daemon.ProcessBuffer(0, records);

  const ImageProfile* profile_a = daemon.FindProfile("libA", EventType::kCycles);
  ASSERT_NE(profile_a, nullptr);
  EXPECT_EQ(profile_a->SamplesAt(4), 10u);
  const ImageProfile* profile_b = daemon.FindProfile("libB", EventType::kCycles);
  ASSERT_NE(profile_b, nullptr);
  EXPECT_EQ(profile_b->SamplesAt(8), 5u);
  EXPECT_EQ(daemon.stats().samples_unknown, 5u);
  EXPECT_EQ(daemon.stats().samples_attributed, 15u);
  EXPECT_NEAR(daemon.UnknownSampleFraction(), 5.0 / 20, 1e-12);
}

TEST(Daemon, SharedImageAcrossPidsMergesIntoOneProfile) {
  Daemon daemon(nullptr, nullptr);
  auto shared = TinyImage("libshared", 0x0100'0000);
  std::vector<LoaderEvent> events;
  events.push_back({LoaderEvent::Kind::kLoadImage, 1, shared});
  events.push_back({LoaderEvent::Kind::kLoadImage, 2, shared});
  daemon.ProcessLoaderEvents(std::move(events));
  std::vector<SampleRecord> records;
  records.push_back({{1, 0x0100'0000, EventType::kCycles}, 1});
  records.push_back({{2, 0x0100'0000, EventType::kCycles}, 2});
  daemon.ProcessBuffer(0, records);
  EXPECT_EQ(daemon.FindProfile("libshared", EventType::kCycles)->SamplesAt(0), 3u);
}

TEST(Daemon, SeparatesEventTypes) {
  Daemon daemon(nullptr, nullptr, {62000.0, 4096.0, 0, 0, 0});
  auto image = TinyImage("img", 0x0100'0000);
  std::vector<LoaderEvent> events;
  events.push_back({LoaderEvent::Kind::kLoadImage, 1, image});
  daemon.ProcessLoaderEvents(std::move(events));
  std::vector<SampleRecord> records;
  records.push_back({{1, 0x0100'0000, EventType::kCycles}, 4});
  records.push_back({{1, 0x0100'0000, EventType::kImiss}, 9});
  daemon.ProcessBuffer(0, records);
  EXPECT_EQ(daemon.FindProfile("img", EventType::kCycles)->SamplesAt(0), 4u);
  EXPECT_EQ(daemon.FindProfile("img", EventType::kImiss)->SamplesAt(0), 9u);
  EXPECT_EQ(daemon.FindProfile("img", EventType::kCycles)->mean_period(), 62000.0);
  EXPECT_EQ(daemon.FindProfile("img", EventType::kImiss)->mean_period(), 4096.0);
}

TEST(Daemon, TracksModelledCost) {
  Daemon daemon(nullptr, nullptr);
  auto image = TinyImage("img", 0x0100'0000);
  std::vector<LoaderEvent> events;
  events.push_back({LoaderEvent::Kind::kLoadImage, 1, image});
  daemon.ProcessLoaderEvents(std::move(events));
  std::vector<SampleRecord> records(10, {{1, 0x0100'0000, EventType::kCycles}, 1});
  daemon.ProcessBuffer(0, records);
  EXPECT_GT(daemon.stats().daemon_cycles, 0u);
  EXPECT_EQ(daemon.stats().records_processed, 10u);
  EXPECT_GT(daemon.MemoryUsageBytes(), 0u);
}

}  // namespace
}  // namespace dcpi
