// Crash-safety and corruption tests for the profile database (Section 4.3.3
// durability): fault injection at every point of the atomic write protocol,
// CRC-based corruption quarantine on reopen, epoch-numbering recovery, the
// daemon's retry-then-report flush path, and adversarial deserialization
// inputs (truncation at every byte boundary, trailing garbage, bad event
// ids, varint overflow, unsupported versions, malformed memory sections).
// Inputs aimed at a structural check carry a valid CRC32 trailer, so the
// check itself, not the checksum, must reject them.

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "src/daemon/daemon.h"
#include "src/profiledb/database.h"
#include "src/profiledb/fleet.h"
#include "src/support/binary_io.h"
#include "src/support/crc32.h"
#include "tests/scratch_dir.h"

namespace dcpi {
namespace {

class ProfileDbCrashTest : public ::testing::Test {
 protected:
  void TearDown() override { SetFaultInjectingEnv(nullptr); }
  ScratchDir scratch_;
  const std::string root_ = scratch_.path();
};

ImageProfile MakeProfile(const std::string& name, uint64_t samples_at_zero) {
  ImageProfile profile(name, EventType::kCycles, 62000.0);
  profile.AddSamples(0, samples_at_zero);
  return profile;
}

uint64_t SamplesOrZero(const ProfileDatabase& db, uint32_t epoch,
                       const std::string& image) {
  Result<ImageProfile> profile = db.ReadProfile(epoch, image, EventType::kCycles);
  return profile.ok() ? profile.value().SamplesAt(0) : 0;
}

// A serialized profile without its 4-byte CRC32 trailer.
std::vector<uint8_t> PayloadOf(std::vector<uint8_t> serialized) {
  serialized.resize(serialized.size() - 4);
  return serialized;
}

// Appends a valid CRC32 trailer, so a malformed payload gets past the
// checksum to the structural check a test targets.
std::vector<uint8_t> WithCrc(std::vector<uint8_t> payload) {
  ByteWriter trailer;
  trailer.PutU32(Crc32(payload));
  payload.insert(payload.end(), trailer.bytes().begin(), trailer.bytes().end());
  return payload;
}

// The acceptance property: for every injected fault point, reopening the
// database succeeds, quarantines at most the in-flight file, and each
// image's total is either its pre-flush or its post-flush value — never a
// partial or corrupt state.
TEST_F(ProfileDbCrashTest, EveryFaultPointLeavesEpochConsistent) {
  const WriteFault kFaults[] = {WriteFault::kFailWrite, WriteFault::kTruncatedTemp,
                                WriteFault::kCrashBeforeRename};
  for (WriteFault fault : kFaults) {
    for (int nth = 1; nth <= 2; ++nth) {
      const std::string db_root = root_ + "/fault" +
                                  std::to_string(static_cast<int>(fault)) +
                                  "_nth" + std::to_string(nth);
      SCOPED_TRACE(db_root);
      {
        ProfileDatabase db(db_root);
        // Flush 1: the pre-flush state (a=5, b=7 in epoch 0).
        ASSERT_TRUE(db.ReplaceProfile(MakeProfile("a", 5)).ok());
        ASSERT_TRUE(db.ReplaceProfile(MakeProfile("b", 7)).ok());
        // Flush 2 with a fault injected at write `nth`: at most one of the
        // two writes fails, and the failure is reported, not swallowed.
        FaultInjectingEnv env;
        env.FailNthWrite(nth, fault);
        SetFaultInjectingEnv(&env);
        Status wrote_a = db.ReplaceProfile(MakeProfile("a", 3));
        Status wrote_b = db.ReplaceProfile(MakeProfile("b", 4));
        SetFaultInjectingEnv(nullptr);
        EXPECT_NE(wrote_a.ok(), nth == 1);
        EXPECT_NE(wrote_b.ok(), nth == 2);
      }
      // Simulated crash: reopen from disk alone.
      ProfileDatabase db(db_root);
      const ScanReport& report = db.scan_report();
      EXPECT_LE(report.files_quarantined, 1u);
      EXPECT_EQ(report.next_epoch, 1u);
      uint64_t a = SamplesOrZero(db, 0, "a");
      uint64_t b = SamplesOrZero(db, 0, "b");
      EXPECT_TRUE(a == 5 || a == 3) << "a=" << a;
      EXPECT_TRUE(b == 7 || b == 4) << "b=" << b;
      // The write that was not faulted must have committed.
      if (nth == 1) {
        EXPECT_EQ(b, 4u);
      } else {
        EXPECT_EQ(a, 3u);
      }
    }
  }
}

TEST_F(ProfileDbCrashTest, CorruptFileIsQuarantinedOnReopen) {
  std::string path;
  {
    ProfileDatabase db(root_);
    ASSERT_TRUE(db.ReplaceProfile(MakeProfile("a", 5)).ok());
    ASSERT_TRUE(db.ReplaceProfile(MakeProfile("b", 7)).ok());
    ASSERT_TRUE(db.ReplaceProfile(MakeProfile("c", 9)).ok());
    path = db.root() + "/epoch_0/" +
           ProfileDatabase::ProfileFileName("b", EventType::kCycles);
  }
  // Flip a byte mid-file (bit rot / torn sector): the CRC must catch it.
  std::vector<uint8_t> bytes;
  ASSERT_TRUE(ReadFile(path, &bytes).ok());
  bytes[bytes.size() / 2] ^= 0xff;
  ASSERT_TRUE(WriteFile(path, bytes).ok());

  ProfileDatabase db(root_);
  const ScanReport& report = db.scan_report();
  EXPECT_EQ(report.files_checked, 3u);
  EXPECT_EQ(report.files_recovered, 2u);
  EXPECT_EQ(report.files_quarantined, 1u);
  EXPECT_FALSE(db.ReadProfile(0, "b", EventType::kCycles).ok());
  EXPECT_EQ(SamplesOrZero(db, 0, "a"), 5u);
  EXPECT_EQ(SamplesOrZero(db, 0, "c"), 9u);
  // The corrupt file is preserved for post-mortem, not deleted.
  EXPECT_TRUE(std::filesystem::exists(
      root_ + "/epoch_0/.quarantine/" +
      ProfileDatabase::ProfileFileName("b", EventType::kCycles)));
  // Listings no longer include it.
  Result<std::vector<std::string>> files = db.ListProfiles(0);
  ASSERT_TRUE(files.ok());
  EXPECT_EQ(files.value().size(), 2u);
}

TEST_F(ProfileDbCrashTest, TruncatedOnDiskFileIsQuarantined) {
  std::string path;
  {
    ProfileDatabase db(root_);
    ASSERT_TRUE(db.ReplaceProfile(MakeProfile("a", 5)).ok());
    path = db.root() + "/epoch_0/" +
           ProfileDatabase::ProfileFileName("a", EventType::kCycles);
  }
  std::vector<uint8_t> bytes;
  ASSERT_TRUE(ReadFile(path, &bytes).ok());
  bytes.resize(bytes.size() / 2);
  ASSERT_TRUE(WriteFile(path, bytes).ok());

  ProfileDatabase db(root_);
  EXPECT_EQ(db.scan_report().files_quarantined, 1u);
  EXPECT_EQ(db.scan_report().files_recovered, 0u);
}

// Regression for the epoch-numbering bug: reopening a populated root used
// to restart at epoch 0 and silently merge into the previous run.
TEST_F(ProfileDbCrashTest, ReopenResumesAtNextEpoch) {
  {
    ProfileDatabase db(root_);
    ASSERT_TRUE(db.ReplaceProfile(MakeProfile("a", 5)).ok());
    ASSERT_TRUE(db.NewEpoch().ok());
    ASSERT_TRUE(db.ReplaceProfile(MakeProfile("a", 7)).ok());
  }
  ProfileDatabase db(root_);
  EXPECT_EQ(db.scan_report().epochs_found, 2u);
  EXPECT_EQ(db.scan_report().next_epoch, 2u);
  ASSERT_TRUE(db.ReplaceProfile(MakeProfile("a", 11)).ok());
  EXPECT_EQ(db.current_epoch(), 2u);
  // The previous run's epochs are untouched: no cross-run merge.
  EXPECT_EQ(SamplesOrZero(db, 0, "a"), 5u);
  EXPECT_EQ(SamplesOrZero(db, 1, "a"), 7u);
  EXPECT_EQ(SamplesOrZero(db, 2, "a"), 11u);
  EXPECT_EQ(db.NewEpoch().value(), 3u);
}

TEST_F(ProfileDbCrashTest, InterruptedFlushDoesNotAdvanceEpochNumbering) {
  {
    ProfileDatabase db(root_);
    FaultInjectingEnv env;
    env.FailNthWrite(1, WriteFault::kTruncatedTemp);
    SetFaultInjectingEnv(&env);
    EXPECT_FALSE(db.ReplaceProfile(MakeProfile("a", 5)).ok());
    SetFaultInjectingEnv(nullptr);
  }
  // Only a tmp file exists in epoch 0; it is quarantined and the epoch dir
  // still counts, so the next run writes to epoch 1.
  ProfileDatabase db(root_);
  EXPECT_EQ(db.scan_report().files_quarantined, 1u);
  EXPECT_EQ(db.scan_report().next_epoch, 1u);
}

// ---- Daemon flush error plumbing ----

// Feeds the daemon samples that resolve to the synthetic "unknown" image
// (no load maps needed), one profile per event type.
void FeedUnknownSamples(Daemon* daemon, EventType event, uint64_t count) {
  std::vector<SampleRecord> records;
  records.push_back({{1, 0x1000, event}, count});
  daemon->ProcessBuffer(0, records);
}

TEST_F(ProfileDbCrashTest, DaemonFlushRetriesFailedWriteOnce) {
  ProfileDatabase db(root_);
  Daemon daemon(nullptr, &db);
  FeedUnknownSamples(&daemon, EventType::kCycles, 10);

  FaultInjectingEnv env;
  env.FailNthWrite(1, WriteFault::kFailWrite);  // first attempt fails, retry succeeds
  SetFaultInjectingEnv(&env);
  Status flushed = daemon.FlushToDatabase();
  SetFaultInjectingEnv(nullptr);

  EXPECT_TRUE(flushed.ok()) << flushed.ToString();
  EXPECT_EQ(daemon.stats().db_write_retries, 1u);
  EXPECT_EQ(daemon.stats().db_write_failures, 0u);
  EXPECT_EQ(SamplesOrZero(db, 0, "unknown"), 10u);
}

TEST_F(ProfileDbCrashTest, DaemonFlushReportsPersistentFailureAndContinues) {
  ProfileDatabase db(root_);
  Daemon daemon(nullptr, &db);
  FeedUnknownSamples(&daemon, EventType::kCycles, 10);
  FeedUnknownSamples(&daemon, EventType::kImiss, 20);

  FaultInjectingEnv env;
  // Writes 1 and 2 are the first profile's attempt + retry: both fail. The
  // second profile (write 3) must still be flushed.
  env.FailNthWrite(1, WriteFault::kFailWrite, /*count=*/2);
  SetFaultInjectingEnv(&env);
  Status flushed = daemon.FlushToDatabase();
  SetFaultInjectingEnv(nullptr);

  EXPECT_FALSE(flushed.ok());
  EXPECT_NE(flushed.message().find("1 profile write(s) failed"), std::string::npos)
      << flushed.ToString();
  EXPECT_EQ(daemon.stats().db_write_failures, 1u);
  EXPECT_EQ(daemon.stats().db_merges, 1u);
  Result<ImageProfile> imiss = db.ReadProfile(0, "unknown", EventType::kImiss);
  ASSERT_TRUE(imiss.ok());
  EXPECT_EQ(imiss.value().SamplesAt(0), 20u);
}

// ---- Recovery scan ----

TEST_F(ProfileDbCrashTest, OtherVersionFileIsQuarantinedOnlyByReadWriteOpen) {
  // A version-2 file (the varint body without a CRC32 trailer) in an
  // epoch. Only versions 3 and 4 are read, so it is not a valid profile.
  std::vector<uint8_t> v2 = PayloadOf(SerializeProfile(MakeProfile("app", 5)));
  v2[4] = 2;
  const std::string name = ProfileDatabase::ProfileFileName("app", EventType::kCycles);
  std::filesystem::create_directories(root_ + "/epoch_0");
  ASSERT_TRUE(WriteFile(root_ + "/epoch_0/" + name, v2).ok());

  // A read-only open scans nothing, leaves the file where it is and cannot
  // read it.
  {
    ProfileDatabase reader(root_, DbOpenMode::kReadOnly);
    EXPECT_EQ(reader.scan_report().files_checked, 0u);
    EXPECT_EQ(reader.scan_report().files_recovered, 0u);
    EXPECT_EQ(reader.scan_report().files_quarantined, 0u);
    EXPECT_TRUE(std::filesystem::exists(root_ + "/epoch_0/" + name));
    EXPECT_FALSE(reader.ReadProfile(0, "app", EventType::kCycles).ok());
  }

  // A read-write open moves it to the epoch's quarantine, kept intact.
  ProfileDatabase db(root_);
  EXPECT_EQ(db.scan_report().files_quarantined, 1u);
  EXPECT_EQ(db.scan_report().files_recovered, 0u);
  EXPECT_FALSE(std::filesystem::exists(root_ + "/epoch_0/" + name));
  std::vector<uint8_t> kept;
  ASSERT_TRUE(ReadFile(root_ + "/epoch_0/.quarantine/" + name, &kept).ok());
  EXPECT_EQ(kept, v2);
  EXPECT_FALSE(db.ReadProfile(0, "app", EventType::kCycles).ok());
}

// ---- Adversarial deserialization ----

ImageProfile SampleRichProfile() {
  ImageProfile profile("libadversarial.so", EventType::kImiss, 4096.0);
  for (uint64_t off = 0; off < 64; off += 4) profile.AddSamples(off, 100 + off);
  return profile;
}

TEST(DeserializeAdversarial, TruncationAtEveryByteBoundaryIsAnError) {
  std::vector<uint8_t> bytes = SerializeProfile(SampleRichProfile());
  for (size_t len = 0; len < bytes.size(); ++len) {
    std::vector<uint8_t> prefix(bytes.begin(), bytes.begin() + len);
    Result<ImageProfile> result = DeserializeProfile(prefix);
    EXPECT_FALSE(result.ok()) << "prefix of " << len << " bytes parsed";
  }
  EXPECT_TRUE(DeserializeProfile(bytes).ok());
}

// Magic, version, image name, event and period: the fixed profile header.
ByteWriter ProfileHeader(uint8_t version, uint8_t event = 0) {
  ByteWriter writer;
  writer.PutU32(0x44435049);
  writer.PutU8(version);
  writer.PutString("img");
  writer.PutU8(event);
  writer.PutU64(0);
  return writer;
}

// Asserts that the check reporting `message` rejects `bytes`.
void ExpectRejectedWith(const std::vector<uint8_t>& bytes, const std::string& message) {
  Result<ImageProfile> result = DeserializeProfile(bytes);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find(message), std::string::npos)
      << result.status().ToString();
}

TEST(DeserializeAdversarial, TrailingGarbageIsAnError) {
  // After the trailer, the CRC no longer matches.
  std::vector<uint8_t> bytes = SerializeProfile(SampleRichProfile());
  bytes.push_back(0x00);
  ExpectRejectedWith(bytes, "profile checksum mismatch");
  // Inside a CRC-valid payload, the parser must notice the extra byte.
  std::vector<uint8_t> payload = PayloadOf(SerializeProfile(SampleRichProfile()));
  payload.push_back(0x00);
  ExpectRejectedWith(WithCrc(payload), "trailing bytes in profile");
}

TEST(DeserializeAdversarial, OnlyVersionsThreeAndFourAreRead) {
  // Version 1 is the fixed-width encoding SerializeProfileFixedWidth still
  // writes for size comparisons; version 2 is the version-3 body without
  // its trailer; version 5 does not exist. Each carries a valid CRC here.
  ExpectRejectedWith(WithCrc(SerializeProfileFixedWidth(SampleRichProfile())),
                     "unsupported profile version");
  std::vector<uint8_t> payload = PayloadOf(SerializeProfile(SampleRichProfile()));
  for (uint8_t version : {2, 5}) {
    SCOPED_TRACE("version " + std::to_string(version));
    payload[4] = version;
    ExpectRejectedWith(WithCrc(payload), "unsupported profile version");
  }
}

TEST(DeserializeAdversarial, BadEventIdIsAnError) {
  ByteWriter writer = ProfileHeader(3, /*event=*/250);  // not a valid EventType
  writer.PutVarint(0);
  ExpectRejectedWith(WithCrc(writer.bytes()), "bad event type");
}

TEST(DeserializeAdversarial, VarintOverflowIsAnError) {
  // A 10-byte varint whose final byte carries bits beyond bit 63, in the
  // entry-count position.
  ByteWriter writer = ProfileHeader(3);
  for (int i = 0; i < 9; ++i) writer.PutU8(0xff);
  writer.PutU8(0x7f);  // bits 63..69 set: overflow
  ExpectRejectedWith(WithCrc(writer.bytes()), "varint overflow");
}

TEST(DeserializeAdversarial, InflatedEntryCountIsRejectedWithoutAllocating) {
  // A garbage entry count far beyond what the file could hold must fail
  // fast instead of looping or resizing gigabytes.
  ByteWriter writer = ProfileHeader(3);
  writer.PutVarint(uint64_t{1} << 60);
  ExpectRejectedWith(WithCrc(writer.bytes()), "profile entry count exceeds file size");
}

TEST(DeserializeAdversarial, EmptyAndTinyInputsAreErrors) {
  EXPECT_FALSE(DeserializeProfile({}).ok());
  EXPECT_FALSE(DeserializeProfile({0x49}).ok());
  EXPECT_FALSE(DeserializeProfile({0x49, 0x50, 0x43, 0x44}).ok());  // magic only
}

// ---- Version-4 memory sections ----

// A profile with both axes populated: PC samples plus a data-line axis
// with every counter kind exercised (all levels, TLB misses, latencies
// across several histogram buckets, multiple CPUs and 8-byte slots).
ImageProfile MemRichProfile() {
  ImageProfile profile = SampleRichProfile();
  MemoryProfile* mem = profile.mutable_mem();
  mem->AddAccess(0x10000, MemLevel::kL1, 2, false, 0);
  mem->AddAccess(0x10008, MemLevel::kL1, 3, false, 1);     // same line, new slot
  mem->AddAccess(0x10038, MemLevel::kBoard, 40, true, 2);  // same line again
  mem->AddAccess(0x20040, MemLevel::kDram, 180, true, 0);
  mem->AddAccess(0x20080, MemLevel::kL2, 21, false, 3);
  mem->AddAccess(0xfeed0040, MemLevel::kDram, 65000, true, 31);
  return profile;
}

TEST(MemorySection, RoundTripIsExact) {
  ImageProfile original = MemRichProfile();
  std::vector<uint8_t> bytes = SerializeProfile(original);
  EXPECT_EQ(bytes[4], 4) << "memory axis must serialize as version 4";
  Result<ImageProfile> back = DeserializeProfile(bytes);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  // Re-serialization is the equality oracle: both axes are ordered maps,
  // so identical content means identical bytes.
  EXPECT_EQ(SerializeProfile(back.value()), bytes);
  const MemoryProfile& mem = back.value().mem();
  ASSERT_EQ(mem.num_lines(), 4u);
  EXPECT_EQ(mem.total_accesses(), 6u);
  const MemLineCounters& first = mem.lines().at(0x10000);
  EXPECT_EQ(first.level_counts[static_cast<int>(MemLevel::kL1)], 2u);
  EXPECT_EQ(first.level_counts[static_cast<int>(MemLevel::kBoard)], 1u);
  EXPECT_EQ(first.tlb_misses, 1u);
  EXPECT_EQ(first.latency_sum, 45u);
  EXPECT_EQ(first.cpu_mask, 0b111u);
  EXPECT_EQ(first.offset_mask, (1u << 0) | (1u << 1) | (1u << 7));
}

TEST(MemorySection, EmptyMemoryAxisStaysByteExactVersion3) {
  // --mem-fraction 0 must leave databases indistinguishable from pre-v4
  // builds: a profile that never collected a wide record serializes as
  // version 3, byte for byte.
  std::vector<uint8_t> bytes = SerializeProfile(SampleRichProfile());
  EXPECT_EQ(bytes[4], 3);
  ImageProfile cleared = MemRichProfile();
  cleared.ClearCounts();
  for (uint64_t off = 0; off < 64; off += 4) cleared.AddSamples(off, 100 + off);
  EXPECT_EQ(SerializeProfile(cleared), bytes);
}

TEST(MemorySection, TruncationAtEveryByteBoundaryIsAnError) {
  std::vector<uint8_t> bytes = SerializeProfile(MemRichProfile());
  for (size_t len = 0; len < bytes.size(); ++len) {
    std::vector<uint8_t> prefix(bytes.begin(), bytes.begin() + len);
    EXPECT_FALSE(DeserializeProfile(prefix).ok()) << "prefix of " << len;
  }
  EXPECT_TRUE(DeserializeProfile(bytes).ok());
}

TEST(MemorySection, EveryOneBitCorruptionIsAnError) {
  // The CRC trails the whole record, so no single-bit flip anywhere — in
  // the header, either axis, or the checksum itself — may parse.
  std::vector<uint8_t> bytes = SerializeProfile(MemRichProfile());
  for (size_t i = 0; i < bytes.size(); ++i) {
    std::vector<uint8_t> corrupt = bytes;
    corrupt[i] ^= 0x01;
    EXPECT_FALSE(DeserializeProfile(corrupt).ok()) << "flip at byte " << i;
  }
}

TEST(MemorySection, CrossVersionMergeCarriesTheMemoryAxis) {
  // v3 (no memory axis) merged into v4: the PC counts fold, the memory
  // axis passes through untouched — and the merge serializes as v4.
  Result<ImageProfile> v4 = DeserializeProfile(SerializeProfile(MemRichProfile()));
  ASSERT_TRUE(v4.ok());
  Result<ImageProfile> v3 = DeserializeProfile(SerializeProfile(SampleRichProfile()));
  ASSERT_TRUE(v3.ok());
  ImageProfile merged = v4.value();
  merged.Merge(v3.value());
  EXPECT_EQ(merged.SamplesAt(0), 200u);
  EXPECT_EQ(merged.mem().total_accesses(), 6u);
  EXPECT_EQ(SerializeProfile(merged)[4], 4);
  // The mirror-image merge (memory axis arriving from `other`) matches.
  ImageProfile merged2 = v3.value();
  merged2.Merge(v4.value());
  EXPECT_EQ(SerializeProfile(merged2), SerializeProfile(merged));
}

// A version-4 payload with no PC samples and one data line: every counter
// is zero, and the three masks are the given values.
std::vector<uint8_t> OneLineMemPayload(uint64_t bucket_mask, uint64_t cpu_mask,
                                       uint64_t offset_mask) {
  ByteWriter writer = ProfileHeader(4);
  writer.PutVarint(0);  // PC entries
  writer.PutVarint(1);  // data lines
  writer.PutVarint(0);  // line delta
  for (int level = 0; level < kNumMemLevels; ++level) writer.PutVarint(0);
  writer.PutVarint(0);  // TLB misses
  writer.PutVarint(0);  // latency sum
  writer.PutVarint(bucket_mask);
  for (int bucket = 0; bucket < kMemLatencyBuckets; ++bucket) {
    if ((bucket_mask >> bucket & 1) != 0) writer.PutVarint(1);
  }
  writer.PutVarint(cpu_mask);
  writer.PutVarint(offset_mask);
  return writer.bytes();
}

TEST(MemorySection, MalformedSectionsBehindAValidCrcAreRejected) {
  // In-range masks parse: the rejections below come from the masks alone.
  EXPECT_TRUE(
      DeserializeProfile(WithCrc(OneLineMemPayload(0x8001, 0xffffffff, 0xff))).ok());

  ByteWriter inflated = ProfileHeader(4);
  inflated.PutVarint(0);                  // PC entries
  inflated.PutVarint(uint64_t{1} << 40);  // data lines
  ExpectRejectedWith(WithCrc(inflated.bytes()), "memory line count exceeds file size");

  ExpectRejectedWith(WithCrc(OneLineMemPayload(1u << kMemLatencyBuckets, 1, 1)),
                     "bad latency bucket mask");
  ExpectRejectedWith(WithCrc(OneLineMemPayload(0, uint64_t{1} << 32, 1)),
                     "bad memory line mask");
  ExpectRejectedWith(WithCrc(OneLineMemPayload(0, 1, 1u << 8)), "bad memory line mask");
}

TEST(MemorySection, FleetMergesMixedVersionShards) {
  // host_0 collected without memory sampling (v3 on disk), host_1 with it
  // (v4): the fleet-wide merge-on-read carries host_1's memory axis and
  // sums both hosts' PC samples.
  ScratchDir scratch;
  const std::string& root = scratch.path();
  auto write_shard = [&](uint32_t id, const ImageProfile& profile) {
    ProfileDatabase db(root + "/host_" + std::to_string(id));
    ASSERT_TRUE(db.NewEpoch().ok());
    ASSERT_TRUE(db.ReplaceProfile(profile).ok());
    ASSERT_TRUE(db.SealCurrentEpoch().ok());
  };
  write_shard(0, SampleRichProfile());
  write_shard(1, MemRichProfile());
  FleetView view(root);
  ASSERT_EQ(view.num_hosts(), 2u);
  Result<ImageProfile> merged =
      view.ReadProfile({0}, "libadversarial.so", EventType::kImiss);
  ASSERT_TRUE(merged.ok()) << merged.status().ToString();
  EXPECT_EQ(merged.value().SamplesAt(0), 200u);
  EXPECT_EQ(merged.value().mem().total_accesses(), 6u);
  EXPECT_EQ(merged.value().mem().num_lines(), 4u);
}

}  // namespace
}  // namespace dcpi
