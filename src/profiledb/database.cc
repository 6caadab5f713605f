#include "src/profiledb/database.h"

#include <sys/stat.h>
#include <sys/types.h>

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <optional>

#include "src/support/binary_io.h"
#include "src/support/crc32.h"
#include "src/support/parse.h"

namespace dcpi {

namespace {

constexpr uint32_t kMagic = 0x44435049;  // "DCPI"
constexpr uint8_t kVersionFixedWidth = 1;  // written for size comparison only
constexpr uint8_t kVersionChecksummed = 3;  // varint body + CRC32 trailer
constexpr uint8_t kVersionMemory = 4;  // v3 + data-line memory section, CRC32 trailer

constexpr char kSealMarker[] = ".sealed";

bool EndsWith(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

// Header + varint-encoded count records, shared by versions 3 and 4.
void AppendVarintProfile(const ImageProfile& profile, uint8_t version,
                         ByteWriter* writer) {
  writer->PutU32(kMagic);
  writer->PutU8(version);
  writer->PutString(profile.image_name());
  writer->PutU8(static_cast<uint8_t>(profile.event()));
  uint64_t period_bits;
  double period = profile.mean_period();
  std::memcpy(&period_bits, &period, sizeof(period_bits));
  writer->PutU64(period_bits);
  writer->PutVarint(profile.counts().size());
  uint64_t prev_offset = 0;
  for (const auto& [offset, count] : profile.counts()) {
    writer->PutVarint(offset - prev_offset);  // ordered map: deltas are small
    writer->PutVarint(count);
    prev_offset = offset;
  }
}

// Version-4 memory section, appended after the PC-axis records. Line VAs
// are delta-coded in 64-byte line units; the latency histogram is sparse
// (a 16-bit bucket mask, then one varint per set bucket).
void AppendMemorySection(const MemoryProfile& mem, ByteWriter* writer) {
  writer->PutVarint(mem.num_lines());
  uint64_t prev_line = 0;
  for (const auto& [line_va, counters] : mem.lines()) {
    writer->PutVarint((line_va - prev_line) / kMemLineBytes);
    prev_line = line_va;
    for (int i = 0; i < kNumMemLevels; ++i) {
      writer->PutVarint(counters.level_counts[i]);
    }
    writer->PutVarint(counters.tlb_misses);
    writer->PutVarint(counters.latency_sum);
    uint64_t bucket_mask = 0;
    for (int i = 0; i < kMemLatencyBuckets; ++i) {
      if (counters.latency_hist[i] != 0) bucket_mask |= 1ull << i;
    }
    writer->PutVarint(bucket_mask);
    for (int i = 0; i < kMemLatencyBuckets; ++i) {
      if (counters.latency_hist[i] != 0) writer->PutVarint(counters.latency_hist[i]);
    }
    writer->PutVarint(counters.cpu_mask);
    writer->PutVarint(counters.offset_mask);
  }
}

Status ReadMemorySection(ByteReader* reader, size_t payload_size,
                         MemoryProfile* mem) {
  uint64_t num_lines = 0;
  DCPI_RETURN_IF_ERROR(reader->GetVarint(&num_lines));
  // A line record is at least 10 varint bytes (delta, 4 levels, tlb,
  // latency sum, bucket mask, cpu mask, offset mask): an inflated line
  // count in a corrupt file cannot pass this bound.
  if (num_lines > (payload_size - reader->position()) / 10) {
    return IoError("memory line count exceeds file size");
  }
  uint64_t line_va = 0;
  for (uint64_t i = 0; i < num_lines; ++i) {
    uint64_t delta = 0;
    DCPI_RETURN_IF_ERROR(reader->GetVarint(&delta));
    line_va += delta * kMemLineBytes;
    MemLineCounters counters;
    for (int level = 0; level < kNumMemLevels; ++level) {
      DCPI_RETURN_IF_ERROR(reader->GetVarint(&counters.level_counts[level]));
    }
    DCPI_RETURN_IF_ERROR(reader->GetVarint(&counters.tlb_misses));
    DCPI_RETURN_IF_ERROR(reader->GetVarint(&counters.latency_sum));
    uint64_t bucket_mask = 0;
    DCPI_RETURN_IF_ERROR(reader->GetVarint(&bucket_mask));
    if (bucket_mask >> kMemLatencyBuckets != 0) {
      return IoError("bad latency bucket mask");
    }
    for (int bucket = 0; bucket < kMemLatencyBuckets; ++bucket) {
      if ((bucket_mask >> bucket & 1) != 0) {
        DCPI_RETURN_IF_ERROR(reader->GetVarint(&counters.latency_hist[bucket]));
      }
    }
    uint64_t cpu_mask = 0, offset_mask = 0;
    DCPI_RETURN_IF_ERROR(reader->GetVarint(&cpu_mask));
    DCPI_RETURN_IF_ERROR(reader->GetVarint(&offset_mask));
    if (cpu_mask >> 32 != 0 || offset_mask >> 8 != 0) {
      return IoError("bad memory line mask");
    }
    counters.cpu_mask = static_cast<uint32_t>(cpu_mask);
    counters.offset_mask = static_cast<uint8_t>(offset_mask);
    mem->MergeLine(line_va, counters);
  }
  return Status::Ok();
}

}  // namespace

void ImageProfile::Merge(const ImageProfile& other) {
  if (mean_period_ == 0) {
    mean_period_ = other.mean_period_;
  } else if (other.mean_period_ != 0 && other.mean_period_ != mean_period_) {
    // Sample-weighted mean of the two periods, so samples-to-cycles scaling
    // stays correct when mux-mode runs with different periods merge.
    //
    // Zero-total guard: merging two empty profiles (0 samples each — legal
    // for a sealed-but-idle epoch, and routine for fleet merge-on-read
    // across idle shards) must not divide by zero; a NaN period would
    // serialize and poison every downstream cycles estimate. Keep this
    // profile's period — merge order is canonicalized by the callers.
    double self_weight = static_cast<double>(total_samples());
    double other_weight = static_cast<double>(other.total_samples());
    double total_weight = self_weight + other_weight;
    if (total_weight > 0) {
      mean_period_ = (mean_period_ * self_weight + other.mean_period_ * other_weight) /
                     total_weight;
    }
  }
  for (const auto& [offset, count] : other.counts_) counts_[offset] += count;
  mem_.Merge(other.mem_);
}

uint64_t ImageProfile::total_samples() const {
  uint64_t total = 0;
  for (const auto& [offset, count] : counts_) total += count;
  return total;
}

std::vector<uint8_t> SerializeProfile(const ImageProfile& profile) {
  ByteWriter writer;
  // Profiles with no memory axis stay byte-exact version 3: running with
  // memory sampling off produces databases identical to pre-v4 builds.
  if (profile.mem().empty()) {
    AppendVarintProfile(profile, kVersionChecksummed, &writer);
  } else {
    AppendVarintProfile(profile, kVersionMemory, &writer);
    AppendMemorySection(profile.mem(), &writer);
  }
  writer.PutU32(Crc32(writer.bytes()));
  return writer.bytes();
}

std::vector<uint8_t> SerializeProfileFixedWidth(const ImageProfile& profile) {
  ByteWriter writer;
  writer.PutU32(kMagic);
  writer.PutU8(kVersionFixedWidth);
  writer.PutString(profile.image_name());
  writer.PutU8(static_cast<uint8_t>(profile.event()));
  uint64_t period_bits;
  double period = profile.mean_period();
  std::memcpy(&period_bits, &period, sizeof(period_bits));
  writer.PutU64(period_bits);
  writer.PutU64(profile.counts().size());
  for (const auto& [offset, count] : profile.counts()) {
    writer.PutU64(offset);
    writer.PutU64(count);
  }
  return writer.bytes();
}

Result<ImageProfile> DeserializeProfile(const std::vector<uint8_t>& bytes) {
  // Magic (4) + version (1) + CRC32 trailer (4) is the minimum.
  if (bytes.size() < 5 + 4) return IoError("truncated profile");
  const size_t payload_size = bytes.size() - 4;
  uint32_t stored = 0;
  for (int i = 0; i < 4; ++i) {
    stored |= static_cast<uint32_t>(bytes[payload_size + i]) << (8 * i);
  }
  if (Crc32(bytes.data(), payload_size) != stored) {
    return IoError("profile checksum mismatch");
  }

  ByteReader reader(bytes.data(), payload_size);
  uint32_t magic = 0;
  DCPI_RETURN_IF_ERROR(reader.GetU32(&magic));
  if (magic != kMagic) return IoError("bad profile magic");
  uint8_t version = 0;
  DCPI_RETURN_IF_ERROR(reader.GetU8(&version));
  if (version != kVersionChecksummed && version != kVersionMemory) {
    return IoError("unsupported profile version");
  }
  std::string image_name;
  DCPI_RETURN_IF_ERROR(reader.GetString(&image_name));
  uint8_t event = 0;
  DCPI_RETURN_IF_ERROR(reader.GetU8(&event));
  if (event >= kNumEventTypes) return IoError("bad event type");
  uint64_t period_bits = 0;
  DCPI_RETURN_IF_ERROR(reader.GetU64(&period_bits));
  double period;
  std::memcpy(&period, &period_bits, sizeof(period));

  ImageProfile profile(image_name, static_cast<EventType>(event), period);
  uint64_t entries = 0;
  DCPI_RETURN_IF_ERROR(reader.GetVarint(&entries));
  // Each entry is at least two varint bytes: an inflated count in a
  // corrupt file cannot pass this bound.
  if (entries > (payload_size - reader.position()) / 2) {
    return IoError("profile entry count exceeds file size");
  }
  uint64_t offset = 0;
  for (uint64_t i = 0; i < entries; ++i) {
    uint64_t delta = 0, count = 0;
    DCPI_RETURN_IF_ERROR(reader.GetVarint(&delta));
    DCPI_RETURN_IF_ERROR(reader.GetVarint(&count));
    offset += delta;
    profile.AddSamples(offset, count);
  }
  if (version == kVersionMemory) {
    DCPI_RETURN_IF_ERROR(
        ReadMemorySection(&reader, payload_size, profile.mutable_mem()));
  }
  if (!reader.AtEnd()) return IoError("trailing bytes in profile");
  return profile;
}

ProfileDatabase::ProfileDatabase(std::string root_dir, DbOpenMode mode)
    : root_(std::move(root_dir)), mode_(mode) {
  if (mode_ == DbOpenMode::kReadOnly) return;
  std::error_code ec;
  std::filesystem::create_directories(root_, ec);
  scan_report_ = ScanAndRecover();
  next_epoch_ = scan_report_.next_epoch;
}

ScanReport ProfileDatabase::ScanAndRecover() const {
  ScanReport report;
  const std::vector<uint32_t> epochs = ListEpochs();
  for (uint32_t epoch : epochs) {
    const std::filesystem::path epoch_path = EpochDir(epoch);
    // directory_iterator order is unspecified; sort files by name so the
    // quarantine is stable across filesystems and runs.
    std::vector<std::filesystem::path> file_paths;
    std::error_code ec;
    for (const auto& file : std::filesystem::directory_iterator(epoch_path, ec)) {
      if (file.is_regular_file()) file_paths.push_back(file.path());
    }
    std::sort(file_paths.begin(), file_paths.end());
    for (const auto& file_path : file_paths) {
      const std::string file_name = file_path.filename().string();
      if (EndsWith(file_name, ".prof")) {
        ++report.files_checked;
        std::vector<uint8_t> bytes;
        if (ReadFile(file_path.string(), &bytes).ok() &&
            DeserializeProfile(bytes).ok()) {
          ++report.files_recovered;
          continue;
        }
      } else if (!EndsWith(file_name, ".tmp")) {
        continue;  // the seal marker or a compacted epoch's provenance
      }
      // A corrupt or other-version profile, or an in-flight write from an
      // interrupted flush (even if complete, the rename never committed
      // it): set aside for post-mortem, out of every listing.
      const std::filesystem::path q_dir = epoch_path / ".quarantine";
      std::error_code q_ec;
      std::filesystem::create_directories(q_dir, q_ec);
      std::filesystem::rename(file_path, q_dir / file_name, q_ec);
      if (q_ec) std::filesystem::remove(file_path, q_ec);
      ++report.files_quarantined;
    }
  }
  report.epochs_found = static_cast<uint32_t>(epochs.size());
  report.next_epoch = epochs.empty() ? 0 : epochs.back() + 1;
  return report;
}

std::string ProfileDatabase::EpochDir(uint32_t epoch) const {
  return root_ + "/epoch_" + std::to_string(epoch);
}

std::string ProfileDatabase::SealMarkerPath(uint32_t epoch) const {
  return EpochDir(epoch) + "/" + kSealMarker;
}

std::string ProfileDatabase::EpochCacheDir(uint32_t epoch) const {
  return EpochDir(epoch) + "/.cache";
}

std::string ProfileDatabase::ProfileFileName(const std::string& image_name,
                                             EventType event) {
  std::string sanitized;
  for (char c : image_name) {
    if (c == '_') {
      sanitized += "__";
    } else if (c == '/') {
      sanitized += "_s";
    } else {
      sanitized += c;
    }
  }
  return sanitized + "__" + EventTypeName(event) + ".prof";
}

uint32_t ProfileDatabase::current_epoch() const {
  MutexLock lock(&mu_);
  return current_epoch_;
}

bool ProfileDatabase::has_open_epoch() const {
  MutexLock lock(&mu_);
  return have_epoch_;
}

uint32_t ProfileDatabase::EnterEpoch(uint32_t epoch) {
  current_epoch_ = epoch;
  have_epoch_ = true;
  return epoch;
}

Result<uint32_t> ProfileDatabase::NewEpoch() {
  if (mode_ == DbOpenMode::kReadOnly) {
    return FailedPrecondition("database opened read-only");
  }
  MutexLock lock(&mu_);
  return EnterEpoch(have_epoch_ ? current_epoch_ + 1 : next_epoch_);
}

Result<uint32_t> ProfileDatabase::OpenEpoch(uint32_t epoch) {
  if (mode_ == DbOpenMode::kReadOnly) {
    return FailedPrecondition("database opened read-only");
  }
  if (IsSealed(epoch)) {
    return FailedPrecondition("epoch " + std::to_string(epoch) +
                              " is sealed and immutable");
  }
  MutexLock lock(&mu_);
  return EnterEpoch(epoch);
}

Status ProfileDatabase::ReplaceProfile(const ImageProfile& profile) {
  if (mode_ == DbOpenMode::kReadOnly) {
    return FailedPrecondition("database opened read-only");
  }
  MutexLock lock(&mu_);
  if (!have_epoch_) EnterEpoch(next_epoch_);
  const std::string dir = EpochDir(current_epoch_);
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) return IoError("cannot create epoch dir: " + ec.message());
  std::string path = dir + "/" + ProfileFileName(profile.image_name(), profile.event());
  std::vector<uint8_t> serialized = SerializeProfile(profile);
  size_t serialized_size = serialized.size();
  DCPI_RETURN_IF_ERROR(WriteFileAtomic(path, std::move(serialized)));
  bytes_written_.fetch_add(serialized_size, std::memory_order_relaxed);
  return Status::Ok();
}

Status ProfileDatabase::SealEpoch(uint32_t epoch, uint64_t at_cycles) {
  if (mode_ == DbOpenMode::kReadOnly) {
    return FailedPrecondition("database opened read-only");
  }
  MutexLock lock(&mu_);
  std::error_code ec;
  if (!std::filesystem::is_directory(EpochDir(epoch), ec)) {
    return NotFound("epoch " + std::to_string(epoch) + " does not exist");
  }
  std::string marker =
      "sealed at_cycles=" + std::to_string(at_cycles) + "\n";
  return WriteFileAtomic(SealMarkerPath(epoch),
                         std::vector<uint8_t>(marker.begin(), marker.end()));
}

Status ProfileDatabase::SealCurrentEpoch(uint64_t at_cycles) {
  uint32_t epoch = 0;
  {
    MutexLock lock(&mu_);
    if (!have_epoch_) return FailedPrecondition("no epoch open to seal");
    epoch = current_epoch_;
  }
  return SealEpoch(epoch, at_cycles);
}

bool ProfileDatabase::IsSealed(uint32_t epoch) const {
  std::error_code ec;
  return std::filesystem::exists(SealMarkerPath(epoch), ec);
}

std::vector<uint32_t> ProfileDatabase::ListEpochs() const {
  std::vector<uint32_t> epochs;
  std::error_code ec;
  std::filesystem::directory_iterator it(root_, ec);
  if (ec) return epochs;
  for (const auto& entry : it) {
    if (!entry.is_directory()) continue;
    uint32_t epoch = 0;
    if (ParseNumberedName(entry.path().filename().string(), "epoch_", &epoch)) {
      epochs.push_back(epoch);
    }
  }
  std::sort(epochs.begin(), epochs.end());
  return epochs;
}

std::vector<uint32_t> ProfileDatabase::ListSealedEpochs() const {
  std::vector<uint32_t> sealed;
  for (uint32_t epoch : ListEpochs()) {
    if (IsSealed(epoch)) sealed.push_back(epoch);
  }
  return sealed;
}

Result<ImageProfile> ProfileDatabase::ReadProfile(uint32_t epoch,
                                                  const std::string& image_name,
                                                  EventType event) const {
  std::vector<uint8_t> bytes;
  DCPI_RETURN_IF_ERROR(
      ReadFile(EpochDir(epoch) + "/" + ProfileFileName(image_name, event), &bytes));
  return DeserializeProfile(bytes);
}

Result<ImageProfile> ProfileDatabase::ReadMerged(std::vector<uint32_t> epochs,
                                                 const std::string& image_name,
                                                 EventType event) const {
  std::sort(epochs.begin(), epochs.end());
  std::optional<ImageProfile> merged;
  for (uint32_t epoch : epochs) {
    Result<ImageProfile> profile = ReadProfile(epoch, image_name, event);
    if (!profile.ok()) continue;  // missing or unreadable: skipped
    if (merged.has_value()) {
      merged->Merge(profile.value());
    } else {
      merged = std::move(profile).value();
    }
  }
  if (!merged.has_value()) {
    return NotFound("no " + std::string(EventTypeName(event)) + " profile for " +
                    image_name);
  }
  return std::move(*merged);
}

Result<std::vector<std::string>> ProfileDatabase::ListProfiles(uint32_t epoch) const {
  std::vector<std::string> names;
  std::error_code ec;
  std::filesystem::directory_iterator it(EpochDir(epoch), ec);
  if (ec) return IoError("cannot list epoch: " + ec.message());
  for (const auto& entry : it) {
    if (!entry.is_regular_file()) continue;
    std::string name = entry.path().filename().string();
    if (EndsWith(name, ".prof")) names.push_back(name);
  }
  std::sort(names.begin(), names.end());  // directory order is unspecified
  return names;
}

uint64_t ProfileDatabase::DiskUsageBytes() const {
  uint64_t total = 0;
  std::error_code ec;
  std::filesystem::recursive_directory_iterator it(root_, ec);
  if (ec) return 0;
  for (const auto& entry : it) {
    std::error_code size_ec;
    if (entry.is_regular_file(size_ec)) total += entry.file_size(size_ec);
  }
  return total;
}

}  // namespace dcpi
