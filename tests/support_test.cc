// Support library tests: status/result, RNG properties, binary I/O
// round trips (property test), CRC32, atomic file writes, strict number
// parsing, statistics, histograms, text tables.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <filesystem>

#include "src/support/binary_io.h"
#include "src/support/crc32.h"
#include "src/support/parse.h"
#include "src/support/rng.h"
#include "src/support/stats.h"
#include "src/support/status.h"
#include "src/support/text_table.h"
#include "tests/scratch_dir.h"

namespace dcpi {
namespace {

TEST(Status, BasicsAndFormatting) {
  EXPECT_TRUE(Status::Ok().ok());
  Status err = InvalidArgument("bad thing");
  EXPECT_FALSE(err.ok());
  EXPECT_EQ(err.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(err.ToString(), "INVALID_ARGUMENT: bad thing");
  EXPECT_EQ(Status::Ok().ToString(), "OK");
}

TEST(Result, ValueAndError) {
  Result<int> good(7);
  EXPECT_TRUE(good.ok());
  EXPECT_EQ(good.value(), 7);
  Result<int> bad(NotFound("nope"));
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(bad.value_or(3), 3);
}

TEST(CartaRng, MatchesLehmerRecurrence) {
  // x' = 16807 * x mod (2^31 - 1), checked against direct 64-bit math.
  CartaRng rng(1);
  uint64_t x = 1;
  for (int i = 0; i < 1000; ++i) {
    x = x * 16807 % 0x7fffffffull;
    EXPECT_EQ(rng.Next(), x);
  }
}

TEST(CartaRng, KnownSequenceValue) {
  // The classic Park-Miller check: starting from 1, the 10000th value is
  // 1043618065.
  CartaRng rng(1);
  uint32_t value = 0;
  for (int i = 0; i < 10000; ++i) value = rng.Next();
  EXPECT_EQ(value, 1043618065u);
}

TEST(CartaRng, UniformInRangeStaysInRangeAndSpreads) {
  CartaRng rng(12345);
  uint64_t lo = 60 * 1024, hi = 64 * 1024;
  double sum = 0;
  for (int i = 0; i < 20000; ++i) {
    uint64_t v = rng.UniformInRange(lo, hi);
    ASSERT_GE(v, lo);
    ASSERT_LE(v, hi);
    sum += static_cast<double>(v);
  }
  double mean = sum / 20000;
  EXPECT_NEAR(mean, (lo + hi) / 2.0, 30.0);  // ~62K +/- small
}

TEST(CartaRng, ZeroSeedIsLegalized) {
  CartaRng rng(0);
  EXPECT_NE(rng.Next(), 0u);
}

TEST(BinaryIo, VarintRoundTripProperty) {
  SplitMix64 rng(9);
  ByteWriter writer;
  std::vector<uint64_t> values;
  for (int i = 0; i < 5000; ++i) {
    // Mix small and large magnitudes (varints are size-sensitive).
    uint64_t v = rng.Next() >> rng.NextBelow(64);
    values.push_back(v);
    writer.PutVarint(v);
  }
  ByteReader reader(writer.bytes());
  for (uint64_t expected : values) {
    uint64_t v = 0;
    ASSERT_TRUE(reader.GetVarint(&v).ok());
    EXPECT_EQ(v, expected);
  }
  EXPECT_TRUE(reader.AtEnd());
}

TEST(BinaryIo, MixedFieldsRoundTrip) {
  ByteWriter writer;
  writer.PutU8(7);
  writer.PutU32(0xdeadbeef);
  writer.PutU64(0x0123456789abcdefull);
  writer.PutString("hello profile");
  ByteReader reader(writer.bytes());
  uint8_t u8 = 0;
  uint32_t u32 = 0;
  uint64_t u64 = 0;
  std::string s;
  ASSERT_TRUE(reader.GetU8(&u8).ok());
  ASSERT_TRUE(reader.GetU32(&u32).ok());
  ASSERT_TRUE(reader.GetU64(&u64).ok());
  ASSERT_TRUE(reader.GetString(&s).ok());
  EXPECT_EQ(u8, 7);
  EXPECT_EQ(u32, 0xdeadbeefu);
  EXPECT_EQ(u64, 0x0123456789abcdefull);
  EXPECT_EQ(s, "hello profile");
}

TEST(BinaryIo, TruncationIsAnError) {
  ByteWriter writer;
  writer.PutU32(1);
  ByteReader reader(writer.bytes());
  uint64_t v;
  EXPECT_FALSE(reader.GetU64(&v).ok());
  // A string whose length prefix promises more bytes than remain.
  ByteWriter writer2;
  writer2.PutVarint(5);
  ByteReader reader2(writer2.bytes());
  std::string s;
  EXPECT_FALSE(reader2.GetString(&s).ok());
}

TEST(BinaryIo, VarintOverflowIsAnError) {
  // UINT64_MAX is the largest legal varint (10 bytes, final byte 0x01).
  ByteWriter writer;
  writer.PutVarint(~uint64_t{0});
  ByteReader reader(writer.bytes());
  uint64_t v = 0;
  ASSERT_TRUE(reader.GetVarint(&v).ok());
  EXPECT_EQ(v, ~uint64_t{0});

  // A 10th byte carrying bits beyond bit 63 would silently drop them.
  std::vector<uint8_t> overflow(9, 0xff);
  overflow.push_back(0x02);
  ByteReader bad(overflow);
  EXPECT_FALSE(bad.GetVarint(&v).ok());

  // An 11-byte varint never terminates within 64 bits.
  std::vector<uint8_t> long_varint(10, 0x80);
  long_varint.push_back(0x01);
  ByteReader too_long(long_varint);
  EXPECT_FALSE(too_long.GetVarint(&v).ok());
}

TEST(BinaryIo, HugeStringLengthIsAnErrorNotAWrapAround) {
  // Length prefix of UINT64_MAX: pos + len wraps; the reader must reject
  // it instead of reading out of bounds.
  ByteWriter writer;
  writer.PutVarint(~uint64_t{0});
  writer.PutU8('x');
  ByteReader reader(writer.bytes());
  std::string s;
  EXPECT_FALSE(reader.GetString(&s).ok());
}

TEST(Crc32, KnownVectorsAndSensitivity) {
  // The classic CRC-32 check value.
  const uint8_t digits[] = {'1', '2', '3', '4', '5', '6', '7', '8', '9'};
  EXPECT_EQ(Crc32(digits, sizeof(digits)), 0xCBF43926u);
  EXPECT_EQ(Crc32(nullptr, 0), 0u);
  // Incremental == one-shot.
  EXPECT_EQ(Crc32(digits + 4, 5, Crc32(digits, 4)), 0xCBF43926u);
  // Any single-bit flip changes the checksum.
  std::vector<uint8_t> bytes(digits, digits + sizeof(digits));
  uint32_t reference = Crc32(bytes);
  for (size_t i = 0; i < bytes.size(); ++i) {
    bytes[i] ^= 0x10;
    EXPECT_NE(Crc32(bytes), reference);
    bytes[i] ^= 0x10;
  }
}

class AtomicWriteTest : public ::testing::Test {
 protected:
  void TearDown() override { SetFaultInjectingEnv(nullptr); }
  ScratchDir scratch_;
  const std::string dir_ = scratch_.path();
};

TEST_F(AtomicWriteTest, RoundTripAndReplace) {
  std::string path = dir_ + "/file.bin";
  std::vector<uint8_t> first = {1, 2, 3, 4, 5};
  ASSERT_TRUE(WriteFileAtomic(path, first).ok());
  std::vector<uint8_t> read;
  ASSERT_TRUE(ReadFile(path, &read).ok());
  EXPECT_EQ(read, first);
  // No temp residue after a completed write.
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));

  std::vector<uint8_t> second = {9, 8};
  ASSERT_TRUE(WriteFileAtomic(path, second).ok());
  ASSERT_TRUE(ReadFile(path, &read).ok());
  EXPECT_EQ(read, second);
}

TEST_F(AtomicWriteTest, FaultsPreserveTheOldContents) {
  std::string path = dir_ + "/file.bin";
  std::vector<uint8_t> original = {1, 2, 3, 4, 5, 6, 7, 8};
  ASSERT_TRUE(WriteFileAtomic(path, original).ok());

  FaultInjectingEnv env;
  for (WriteFault fault : {WriteFault::kFailWrite, WriteFault::kTruncatedTemp,
                           WriteFault::kCrashBeforeRename}) {
    env.FailNthWrite(1, fault);
    SetFaultInjectingEnv(&env);
    std::vector<uint8_t> replacement = {42, 42, 42, 42};
    EXPECT_FALSE(WriteFileAtomic(path, replacement).ok());
    SetFaultInjectingEnv(nullptr);
    std::vector<uint8_t> read;
    ASSERT_TRUE(ReadFile(path, &read).ok());
    EXPECT_EQ(read, original);  // the visible file is never a partial state
  }
  // The crash faults leave an in-flight temp behind, as a real crash would.
  EXPECT_TRUE(std::filesystem::exists(path + ".tmp"));
}

TEST_F(AtomicWriteTest, ReadFileEnforcesSizeCap) {
  std::string path = dir_ + "/big.bin";
  ASSERT_TRUE(WriteFile(path, std::vector<uint8_t>(100, 7)).ok());
  std::vector<uint8_t> read;
  EXPECT_FALSE(ReadFile(path, &read, /*max_bytes=*/10).ok());
  EXPECT_TRUE(ReadFile(path, &read, /*max_bytes=*/100).ok());
  EXPECT_EQ(read.size(), 100u);
}

TEST(Parse, Uint32IsStrictAndOverflowChecked) {
  uint32_t value = 0;
  EXPECT_TRUE(ParseUint32("4294967295", &value));
  EXPECT_EQ(value, 4294967295u);
  EXPECT_TRUE(ParseUint32("007", &value));  // CLI values may be padded
  EXPECT_EQ(value, 7u);
  for (const char* bad : {"", "2x", "-1", "+1", " 1", "4294967296", "99999999999"}) {
    value = 123;
    EXPECT_FALSE(ParseUint32(bad, &value)) << bad;
    EXPECT_EQ(value, 123u) << bad;  // untouched on failure
  }
}

TEST(Parse, DoubleIsFiniteAndWholeString) {
  double value = 0;
  EXPECT_TRUE(ParseDouble("0.25", &value));
  EXPECT_EQ(value, 0.25);
  EXPECT_TRUE(ParseDouble("1e300", &value));  // finite: the caller range-checks
  EXPECT_EQ(value, 1e300);
  EXPECT_TRUE(ParseDouble("-2", &value));
  EXPECT_EQ(value, -2.0);
  for (const char* bad : {"", "0.25x", " 1", "+1", "inf", "-inf", "infinity", "nan",
                          "NaN", "1e999", "x"}) {
    value = 123;
    EXPECT_FALSE(ParseDouble(bad, &value)) << bad;
    EXPECT_EQ(value, 123.0) << bad;  // untouched on failure
  }
}

TEST(Parse, NumberedNamesAreCanonical) {
  uint32_t value = 0;
  EXPECT_TRUE(ParseNumberedName("epoch_0", "epoch_", &value));
  EXPECT_EQ(value, 0u);
  EXPECT_TRUE(ParseNumberedName("host_4294967295", "host_", &value));
  EXPECT_EQ(value, 4294967295u);
  // Padded and overflowing spellings would alias a real directory.
  for (const char* bad : {"epoch_01", "epoch_00", "epoch_4294967297", "epoch_",
                          "epoch_1x", "epoch_-1", "host_1", "xepoch_1"}) {
    EXPECT_FALSE(ParseNumberedName(bad, "epoch_", &value)) << bad;
  }
}

TEST(RunningStat, MomentsMatchDirectComputation) {
  RunningStat stat;
  std::vector<double> xs = {3, 7, 7, 19, 24, 1.5, -2};
  double sum = 0;
  for (double x : xs) {
    stat.Add(x);
    sum += x;
  }
  double mean = sum / xs.size();
  double var = 0;
  for (double x : xs) var += (x - mean) * (x - mean);
  var /= xs.size() - 1;
  EXPECT_EQ(stat.count(), xs.size());
  EXPECT_NEAR(stat.mean(), mean, 1e-9);
  EXPECT_NEAR(stat.stddev(), std::sqrt(var), 1e-9);
  EXPECT_EQ(stat.min(), -2);
  EXPECT_EQ(stat.max(), 24);
  EXPECT_GT(stat.ci95_halfwidth(), 0);
}

TEST(PearsonCorrelation, KnownValues) {
  EXPECT_NEAR(PearsonCorrelation({1, 2, 3, 4}, {2, 4, 6, 8}), 1.0, 1e-12);
  EXPECT_NEAR(PearsonCorrelation({1, 2, 3, 4}, {8, 6, 4, 2}), -1.0, 1e-12);
  EXPECT_EQ(PearsonCorrelation({1, 1, 1}, {1, 2, 3}), 0.0);  // zero variance
  EXPECT_EQ(PearsonCorrelation({1, 2}, {1}), 0.0);           // size mismatch
}

TEST(ErrorHistogram, BucketsAndWithinFractions) {
  ErrorHistogram hist;
  hist.Add(0.0, 10);    // [0,5)
  hist.Add(-7.0, 5);    // [-10,-5)
  hist.Add(12.0, 5);    // [10,15)
  hist.Add(100.0, 2);   // >=45 tail
  hist.Add(-99.0, 3);   // <-45 tail
  EXPECT_NEAR(hist.FractionWithin(5), 10.0 / 25, 1e-12);
  EXPECT_NEAR(hist.FractionWithin(10), 15.0 / 25, 1e-12);
  EXPECT_NEAR(hist.FractionWithin(15), 20.0 / 25, 1e-12);
  EXPECT_EQ(hist.BucketLabel(0), "<-45");
  EXPECT_EQ(hist.BucketLabel(hist.num_buckets() - 1), ">=45");
  double total = 0;
  for (size_t b = 0; b < hist.num_buckets(); ++b) total += hist.BucketPercent(b);
  EXPECT_NEAR(total, 100.0, 1e-9);
}

TEST(TextTable, AlignsColumns) {
  TextTable table;
  table.SetHeader({"name", "value"});
  table.AddRow({"a", "1"});
  table.AddRow({"longer", "22"});
  std::string out = table.ToString();
  // Header, rule, two rows.
  EXPECT_EQ(std::count(out.begin(), out.end(), '\n'), 4);
  // Right-aligned numeric column: "22" ends at the same column as "value".
  EXPECT_NE(out.find("longer"), std::string::npos);
  EXPECT_EQ(TextTable::Percent(12.345, 1), "12.3%");
  EXPECT_EQ(TextTable::Fixed(2.5, 2), "2.50");
}

}  // namespace
}  // namespace dcpi
