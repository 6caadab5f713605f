// Binary serialization helpers for the compact on-disk profile format:
// little-endian fixed-width writes and LEB128-style varints (the profile
// files delta-encode instruction offsets, so varints give the ~3x
// compression the paper's "improved format" reports).

#ifndef SRC_SUPPORT_BINARY_IO_H_
#define SRC_SUPPORT_BINARY_IO_H_

#include <atomic>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "src/support/status.h"

namespace dcpi {

// Append-only byte buffer writer.
class ByteWriter {
 public:
  void PutU8(uint8_t v) { bytes_.push_back(v); }

  void PutU32(uint32_t v) {
    for (int i = 0; i < 4; ++i) bytes_.push_back(static_cast<uint8_t>(v >> (8 * i)));
  }

  void PutU64(uint64_t v) {
    for (int i = 0; i < 8; ++i) bytes_.push_back(static_cast<uint8_t>(v >> (8 * i)));
  }

  // Unsigned LEB128.
  void PutVarint(uint64_t v) {
    while (v >= 0x80) {
      bytes_.push_back(static_cast<uint8_t>(v) | 0x80);
      v >>= 7;
    }
    bytes_.push_back(static_cast<uint8_t>(v));
  }

  // Length-prefixed string.
  void PutString(const std::string& s) {
    PutVarint(s.size());
    bytes_.insert(bytes_.end(), s.begin(), s.end());
  }

  const std::vector<uint8_t>& bytes() const { return bytes_; }
  size_t size() const { return bytes_.size(); }

 private:
  std::vector<uint8_t> bytes_;
};

// Sequential reader over a byte span. All getters return an error Status on
// truncated input instead of reading out of bounds.
class ByteReader {
 public:
  ByteReader(const uint8_t* data, size_t size) : data_(data), size_(size) {}
  explicit ByteReader(const std::vector<uint8_t>& bytes)
      : ByteReader(bytes.data(), bytes.size()) {}

  Status GetU8(uint8_t* out) {
    if (pos_ + 1 > size_) return TruncatedError();
    *out = data_[pos_++];
    return Status::Ok();
  }

  Status GetU32(uint32_t* out) {
    if (pos_ + 4 > size_) return TruncatedError();
    uint32_t v = 0;
    for (int i = 0; i < 4; ++i) v |= static_cast<uint32_t>(data_[pos_ + i]) << (8 * i);
    pos_ += 4;
    *out = v;
    return Status::Ok();
  }

  Status GetU64(uint64_t* out) {
    if (pos_ + 8 > size_) return TruncatedError();
    uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v |= static_cast<uint64_t>(data_[pos_ + i]) << (8 * i);
    pos_ += 8;
    *out = v;
    return Status::Ok();
  }

  Status GetVarint(uint64_t* out) {
    uint64_t v = 0;
    for (int shift = 0; shift < 64; shift += 7) {
      if (pos_ >= size_) return TruncatedError();
      uint8_t byte = data_[pos_++];
      // The 10th byte holds only bit 63: higher payload bits would be
      // silently dropped by the shift, so reject them.
      if (shift == 63 && (byte & 0x7e) != 0) return IoError("varint overflow");
      v |= static_cast<uint64_t>(byte & 0x7f) << shift;
      if ((byte & 0x80) == 0) {
        *out = v;
        return Status::Ok();
      }
    }
    return IoError("varint too long");
  }

  Status GetString(std::string* out) {
    uint64_t len = 0;
    DCPI_RETURN_IF_ERROR(GetVarint(&len));
    // `pos_ + len` can wrap for a garbage length field; compare against the
    // remaining byte count instead.
    if (len > size_ - pos_) return TruncatedError();
    out->assign(reinterpret_cast<const char*>(data_ + pos_), len);
    pos_ += len;
    return Status::Ok();
  }

  bool AtEnd() const { return pos_ >= size_; }
  size_t position() const { return pos_; }

 private:
  Status TruncatedError() const { return IoError("truncated input"); }

  const uint8_t* data_;
  size_t size_;
  size_t pos_ = 0;
};

// Whole-file helpers.
//
// ReadFile refuses files larger than `max_bytes` so a corrupt or hostile
// file cannot drive a multi-GB resize; profile files are at most a few MB.
inline constexpr size_t kMaxReadFileBytes = size_t{256} << 20;

Status WriteFile(const std::string& path, const std::vector<uint8_t>& bytes);
Status ReadFile(const std::string& path, std::vector<uint8_t>* bytes,
                size_t max_bytes = kMaxReadFileBytes);

// Crash-safe whole-file write: the bytes go to `path + ".tmp"`, are fsynced,
// and are renamed over `path` only once durable (the directory is fsynced
// after the rename). Readers therefore see either the old contents or the
// new contents, never a prefix. A leftover "*.tmp" file marks an
// interrupted write and must not be trusted.
Status WriteFileAtomic(const std::string& path, const std::vector<uint8_t>& bytes);

// ---- Fault injection (tests only) ----
//
// The crash-safety tests arm a FaultInjectingEnv to make the Nth
// WriteFileAtomic call fail at a chosen point in the protocol, simulating
// I/O errors and process death mid-flush.

enum class WriteFault {
  kNone = 0,
  kFailWrite,          // clean failure: error returned, no temp left behind
  kTruncatedTemp,      // crash mid-write: a half-written temp file survives
  kCrashBeforeRename,  // crash after the temp is durable but before rename
};

class FaultInjectingEnv {
 public:
  // Arms the injector: WriteFileAtomic calls [nth, nth + count) (1-based,
  // counted from this call) fail with `fault`.
  void FailNthWrite(int nth, WriteFault fault, int count = 1) {
    fault_ = fault;
    first_ = nth;
    last_ = nth + count - 1;
    write_index_.store(0, std::memory_order_relaxed);
  }

  int writes_attempted() const {
    return write_index_.load(std::memory_order_relaxed);
  }

  // Called once per WriteFileAtomic; returns the fault for this write.
  WriteFault OnWrite() {
    int index = write_index_.fetch_add(1, std::memory_order_relaxed) + 1;
    return (index >= first_ && index <= last_) ? fault_ : WriteFault::kNone;
  }

 private:
  WriteFault fault_ = WriteFault::kNone;
  int first_ = 0;
  int last_ = -1;
  std::atomic<int> write_index_{0};
};

// Installs `env` as the process-wide injector consulted by WriteFileAtomic
// (nullptr disarms). Returns the previously installed injector.
FaultInjectingEnv* SetFaultInjectingEnv(FaultInjectingEnv* env);

}  // namespace dcpi

#endif  // SRC_SUPPORT_BINARY_IO_H_
