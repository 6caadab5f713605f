// Oracle and adversarial tests for the daemon's batched ingest path
// (Section 5.4's per-sample-work reduction): the staging-vector path must
// produce byte-identical profiles to a std::map reference ingest over
// partially-filled buffers, duplicate flushes, zero-count records, off-grid
// PCs, and unknown samples — and staged counts must never leak across a
// sealed epoch boundary. The drain thread's wait protocol is pinned here
// too: it parks without burning CPU, and a clock advance wakes it for a
// due timed flush.

#include <gtest/gtest.h>
#include <time.h>

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/daemon/daemon.h"
#include "src/isa/assembler.h"
#include "src/profiledb/database.h"
#include "src/support/rng.h"
#include "tests/scratch_dir.h"

namespace dcpi {
namespace {

std::shared_ptr<ExecutableImage> TinyImage(const std::string& name, uint64_t base) {
  auto image = Assemble(name, base, "nop\nnop\nnop\nnop\nhalt\n");
  return image.value();
}

// Two images under pid 7, nothing under pid 9.
void LoadStandardMaps(Daemon* daemon) {
  std::vector<LoaderEvent> events;
  events.push_back({LoaderEvent::Kind::kLoadImage, 7, TinyImage("libA", 0x0100'0000)});
  events.push_back({LoaderEvent::Kind::kLoadImage, 7, TinyImage("libB", 0x0200'0000)});
  daemon->ProcessLoaderEvents(std::move(events));
}

// Serialized profile bytes, keyed by (image, event).
using ProfileBytes = std::map<std::pair<std::string, int>, std::vector<uint8_t>>;

// Every in-memory profile of `daemon`.
ProfileBytes Snapshot(const Daemon& daemon) {
  ProfileBytes snapshot;
  for (const ImageProfile* profile : daemon.AllProfiles()) {
    snapshot[{profile->image_name(), static_cast<int>(profile->event())}] =
        SerializeProfile(*profile);
  }
  return snapshot;
}

// The reference ingest for the maps of LoadStandardMaps, one record at a
// time into ordered per-(image, event) profiles, the way hash_policy_test
// keeps its std::map oracle for the hash table. A record resolves through
// the two test images under pid 7; anything else is the unknown image at
// offset 0. Off-grid offsets are kept as they are, and zero counts create
// nothing.
class IngestOracle {
 public:
  void Ingest(const std::vector<SampleRecord>& records) {
    for (const SampleRecord& record : records) {
      ++records_;
      if (record.count == 0) continue;
      std::string image = "unknown";
      uint64_t offset = 0;
      for (const std::shared_ptr<ExecutableImage>& mapped : images_) {
        if (record.key.pid == 7 && record.key.pc >= mapped->text_base() &&
            record.key.pc < mapped->text_end()) {
          image = mapped->name();
          offset = record.key.pc - mapped->text_base();
        }
      }
      if (image == "unknown") {
        unknown_ += record.count;
      } else {
        attributed_ += record.count;
      }
      auto key = std::make_pair(image, static_cast<int>(record.key.event));
      auto it = profiles_.try_emplace(key, image, record.key.event, 0.0).first;
      it->second.AddSamples(offset, record.count);
    }
  }

  ProfileBytes Profiles() const {
    ProfileBytes bytes;
    for (const auto& [key, profile] : profiles_) bytes[key] = SerializeProfile(profile);
    return bytes;
  }
  uint64_t records() const { return records_; }
  uint64_t attributed() const { return attributed_; }
  uint64_t unknown() const { return unknown_; }

 private:
  const std::shared_ptr<ExecutableImage> images_[2] = {
      TinyImage("libA", 0x0100'0000), TinyImage("libB", 0x0200'0000)};
  std::map<std::pair<std::string, int>, ImageProfile> profiles_;
  uint64_t records_ = 0;
  uint64_t attributed_ = 0;
  uint64_t unknown_ = 0;
};

// An adversarial buffer mix: mapped PCs (both images), unmapped PCs, a
// wrong PID, an off-grid PC (offset not a multiple of 4 — takes the
// batched path's direct profile add), zero-count records, and a second
// event type interleaved with the first.
std::vector<SampleRecord> AdversarialRecords(SplitMix64& rng, int length) {
  std::vector<SampleRecord> records;
  records.reserve(length);
  for (int i = 0; i < length; ++i) {
    SampleRecord record;
    switch (rng.NextBelow(8)) {
      case 0:  // libB
        record.key = {7, 0x0200'0000 + rng.NextBelow(5) * 4, EventType::kCycles};
        break;
      case 1:  // unmapped PC
        record.key = {7, 0x0300'0000, EventType::kCycles};
        break;
      case 2:  // wrong pid
        record.key = {9, 0x0100'0004, EventType::kCycles};
        break;
      case 3:  // off-grid PC inside libA
        record.key = {7, 0x0100'0002, EventType::kCycles};
        break;
      case 4:  // imiss samples for libA
        record.key = {7, 0x0100'0000 + rng.NextBelow(5) * 4, EventType::kImiss};
        break;
      default:  // the common case: cycles in libA
        record.key = {7, 0x0100'0000 + rng.NextBelow(5) * 4, EventType::kCycles};
        break;
    }
    record.count = rng.NextBelow(5);  // 0 is legal: an empty hash line slot
    records.push_back(record);
  }
  return records;
}

TEST(DaemonIngest, MatchesOracleOverAdversarialBuffers) {
  constexpr int kTrials = 16;
  for (int trial = 0; trial < kTrials; ++trial) {
    SplitMix64 rng(0xBA7C'0000ull + trial);
    Daemon daemon(nullptr, nullptr);
    LoadStandardMaps(&daemon);
    IngestOracle oracle;

    // A run is a sequence of buffers of wildly varying fill levels,
    // including empty ones (a drained buffer can be partially filled or
    // empty at flush time).
    int buffers = 1 + static_cast<int>(rng.NextBelow(8));
    for (int b = 0; b < buffers; ++b) {
      int length = static_cast<int>(rng.NextBelow(40));  // 0 = empty buffer
      std::vector<SampleRecord> records = AdversarialRecords(rng, length);
      daemon.ProcessBuffer(0, records);
      oracle.Ingest(records);
    }

    EXPECT_EQ(Snapshot(daemon), oracle.Profiles()) << "trial " << trial;
    EXPECT_EQ(daemon.stats().records_processed, oracle.records());
    EXPECT_EQ(daemon.stats().samples_attributed, oracle.attributed());
    EXPECT_EQ(daemon.stats().samples_unknown, oracle.unknown());
  }
}

TEST(DaemonIngest, DuplicateFlushIsAdditive) {
  // The driver may legally drain the same aggregate twice (e.g. a key
  // evicted and re-inserted); ingest must accumulate, not replace.
  Daemon daemon(nullptr, nullptr);
  LoadStandardMaps(&daemon);
  std::vector<SampleRecord> records;
  records.push_back({{7, 0x0100'0004, EventType::kCycles}, 10});
  daemon.ProcessBuffer(0, records);
  daemon.ProcessBuffer(1, records);  // duplicate flush, different CPU
  const ImageProfile* profile = daemon.FindProfile("libA", EventType::kCycles);
  ASSERT_NE(profile, nullptr);
  EXPECT_EQ(profile->SamplesAt(4), 20u);
}

TEST(DaemonIngest, EmptyAndZeroCountBuffersCreateNoProfiles) {
  Daemon daemon(nullptr, nullptr);
  LoadStandardMaps(&daemon);
  daemon.ProcessBuffer(0, std::vector<SampleRecord>{});
  std::vector<SampleRecord> zeros(5, {{7, 0x0100'0000, EventType::kCycles}, 0});
  daemon.ProcessBuffer(0, zeros);
  // Zero-count records carry no samples: no profile may materialize (a
  // zero-count map entry would change the serialized bytes without
  // changing any total).
  EXPECT_TRUE(daemon.AllProfiles().empty());
  EXPECT_EQ(daemon.stats().records_processed, 5u);
  EXPECT_EQ(daemon.stats().samples_attributed, 0u);
}

TEST(DaemonIngest, BatchedAmortizesLockAcquisitions) {
  Daemon daemon(nullptr, nullptr);
  LoadStandardMaps(&daemon);
  // 30 records over 2 (image, event) pairs: 2 groups, not 30.
  std::vector<SampleRecord> records;
  for (int i = 0; i < 15; ++i) {
    records.push_back(
        {{7, 0x0100'0000 + static_cast<uint64_t>(i % 5) * 4, EventType::kCycles}, 1});
    records.push_back(
        {{7, 0x0200'0000 + static_cast<uint64_t>(i % 5) * 4, EventType::kCycles}, 1});
  }
  daemon.ProcessBuffer(0, records);
  EXPECT_EQ(daemon.stats().ingest_groups, 2u);
  EXPECT_EQ(daemon.stats().records_processed, 30u);
  // The modelled cost charges per record + per group + per buffer.
  EXPECT_EQ(daemon.stats().daemon_cycles,
            30 * Daemon::kCyclesPerRecord + 2 * Daemon::kCyclesPerGroup +
                Daemon::kCyclesPerBuffer);
  // Reading a profile drains its staging vector exactly once.
  uint64_t drains_before = daemon.stats().staging_drains;
  ASSERT_NE(daemon.FindProfile("libA", EventType::kCycles), nullptr);
  EXPECT_EQ(daemon.stats().staging_drains, drains_before + 1);
}

// Host CPU time consumed by the whole process so far, in milliseconds.
double ProcessCpuMs() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 + static_cast<double>(ts.tv_nsec) / 1e6;
}

TEST(DaemonIngest, ParkedDrainThreadBurnsNoCpu) {
  // No producers: after its first empty sweep the drain thread must sleep
  // on the driver's doorbell, not poll. A polling thread burns one whole
  // core, i.e. about as much CPU time as wall time passes.
  DcpiDriver driver(2, DriverConfig{});
  Daemon daemon(&driver, nullptr);
  daemon.StartDrainThread();
  double cpu_start = ProcessCpuMs();
  auto wall_start = std::chrono::steady_clock::now();
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  double cpu_ms = ProcessCpuMs() - cpu_start;
  double wall_ms = std::chrono::duration<double, std::milli>(
                       std::chrono::steady_clock::now() - wall_start)
                       .count();
  daemon.StopDrainThread();  // must return while the thread is parked
  EXPECT_LT(cpu_ms, 0.1 * wall_ms) << cpu_ms << " ms CPU in " << wall_ms << " ms";
}

TEST(DaemonIngest, SimTimeWakesParkedDrainThread) {
  // A due timed flush is work that no published buffer announces: the
  // clock advance itself must wake the parked drain thread.
  ScratchDir scratch;
  ProfileDatabase db(scratch.path() + "/db");
  DcpiDriver driver(1, DriverConfig{});
  Daemon daemon(&driver, &db);
  EpochPolicy policy;
  policy.flush_interval_cycles = 1000;
  daemon.set_epoch_policy(policy);
  daemon.StartDrainThread();
  std::this_thread::sleep_for(std::chrono::milliseconds(50));  // let it park
  EXPECT_EQ(daemon.stats().timed_flushes, 0u);

  daemon.PublishSimTime(1000);
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (daemon.stats().timed_flushes == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(daemon.stats().timed_flushes, 1u);
  daemon.StopDrainThread();
}

class IngestDbTest : public ::testing::Test {
 protected:
  ScratchDir scratch_;
  const std::string root_ = scratch_.path() + "/db";
};

TEST_F(IngestDbTest, EpochRollFlushesStagingIntoSealedEpoch) {
  // Samples staged (not yet merged) when a roll executes belong to the
  // epoch being sealed — they must land on disk in that epoch and must
  // not survive into the next one.
  ProfileDatabase db(root_);
  Daemon daemon(nullptr, &db);
  LoadStandardMaps(&daemon);

  std::vector<SampleRecord> epoch0;
  epoch0.push_back({{7, 0x0100'0000, EventType::kCycles}, 10});
  daemon.ProcessBuffer(0, epoch0);  // staged, never explicitly flushed
  ASSERT_TRUE(daemon.RollEpoch(100).ok());

  std::vector<SampleRecord> epoch1;
  epoch1.push_back({{7, 0x0100'0004, EventType::kCycles}, 5});
  daemon.ProcessBuffer(0, epoch1);
  ASSERT_TRUE(daemon.FlushToDatabase().ok());

  Result<ImageProfile> sealed = db.ReadProfile(0, "libA", EventType::kCycles);
  ASSERT_TRUE(sealed.ok());
  EXPECT_EQ(sealed.value().SamplesAt(0), 10u);
  EXPECT_EQ(sealed.value().SamplesAt(4), 0u);

  Result<ImageProfile> open = db.ReadProfile(1, "libA", EventType::kCycles);
  ASSERT_TRUE(open.ok());
  EXPECT_EQ(open.value().SamplesAt(0), 0u);  // nothing leaked across the seal
  EXPECT_EQ(open.value().SamplesAt(4), 5u);

  // In memory, the new epoch restarted from zero too.
  const ImageProfile* live = daemon.FindProfile("libA", EventType::kCycles);
  ASSERT_NE(live, nullptr);
  EXPECT_EQ(live->SamplesAt(0), 0u);
  EXPECT_EQ(live->total_samples(), 5u);
}

TEST_F(IngestDbTest, WritesOracleProfilesPerEpoch) {
  // End-to-end on disk: six adversarial buffers with a roll after the
  // third. Every profile file holds exactly the oracle's profile for its
  // epoch, and the two seal markers are the only other files.
  SplitMix64 rng(0xD15Cull);
  std::vector<std::vector<SampleRecord>> buffers;
  for (int b = 0; b < 6; ++b) {
    buffers.push_back(AdversarialRecords(rng, 30));
  }
  IngestOracle oracles[2];
  {
    ProfileDatabase db(root_);
    Daemon daemon(nullptr, &db);
    LoadStandardMaps(&daemon);
    for (size_t b = 0; b < buffers.size(); ++b) {
      daemon.ProcessBuffer(0, buffers[b]);
      oracles[b <= 2 ? 0 : 1].Ingest(buffers[b]);
      if (b == 2) {
        ASSERT_TRUE(daemon.RollEpoch(1000).ok());
      }
    }
    ASSERT_TRUE(daemon.FlushToDatabase().ok());
    ASSERT_TRUE(daemon.SealCurrentEpoch(2000).ok());
  }
  std::map<std::string, std::vector<uint8_t>> expected;
  for (int epoch = 0; epoch < 2; ++epoch) {
    const std::string dir = "epoch_" + std::to_string(epoch) + "/";
    for (const auto& [key, bytes] : oracles[epoch].Profiles()) {
      expected[dir + ProfileDatabase::ProfileFileName(
                         key.first, static_cast<EventType>(key.second))] = bytes;
    }
    const std::string marker =
        "sealed at_cycles=" + std::to_string(epoch == 0 ? 1000 : 2000) + "\n";
    expected[dir + ".sealed"] = std::vector<uint8_t>(marker.begin(), marker.end());
  }
  std::map<std::string, std::vector<uint8_t>> files;
  for (const auto& entry : std::filesystem::recursive_directory_iterator(root_)) {
    if (!entry.is_regular_file()) continue;
    std::string rel = std::filesystem::relative(entry.path(), root_).string();
    std::ifstream in(entry.path(), std::ios::binary);
    files[rel] = std::vector<uint8_t>(std::istreambuf_iterator<char>(in),
                                      std::istreambuf_iterator<char>());
  }
  EXPECT_EQ(files, expected);
}

}  // namespace
}  // namespace dcpi
