// FNV-1a, 64-bit: a byte-at-a-time non-cryptographic hash over canonical
// bytes. Fields are fed little-endian and strings length-prefixed, so the
// value depends only on the sequence of fields, never on host byte order.
// The analysis result cache keys its entries with it, and the simulator's
// golden tests digest whole runs with it.

#ifndef SRC_SUPPORT_FNV1A_H_
#define SRC_SUPPORT_FNV1A_H_

#include <cstddef>
#include <cstdint>
#include <string>

namespace dcpi {

class Fnv1a64 {
 public:
  void Bytes(const void* data, size_t size) {
    const auto* p = static_cast<const uint8_t*>(data);
    for (size_t i = 0; i < size; ++i) {
      hash_ ^= p[i];
      hash_ *= 0x100000001b3ull;
    }
  }
  void U8(uint8_t value) { Bytes(&value, 1); }
  void U64(uint64_t value) {
    uint8_t bytes[8];
    for (int i = 0; i < 8; ++i) bytes[i] = static_cast<uint8_t>(value >> (8 * i));
    Bytes(bytes, sizeof(bytes));
  }
  void Str(const std::string& s) {
    U64(s.size());
    Bytes(s.data(), s.size());
  }
  uint64_t value() const { return hash_; }

 private:
  uint64_t hash_ = 0xcbf29ce484222325ull;
};

}  // namespace dcpi

#endif  // SRC_SUPPORT_FNV1A_H_
