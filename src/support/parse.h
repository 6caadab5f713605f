// Strict decimal parsing, shared by the CLI flag parsers and the profile
// database's directory scans (epoch_<N>, host_<N>).

#ifndef SRC_SUPPORT_PARSE_H_
#define SRC_SUPPORT_PARSE_H_

#include <cstdint>
#include <string_view>

namespace dcpi {

// Every character must be a digit and the value must fit: "", "2x", "-1"
// and "4294967296" all fail. Leading zeros are accepted ("007" is 7), so
// a CLI value may be padded. Tool mains use this instead of atoi so a typo
// exits 2 with usage instead of running with a half-parsed number.
bool ParseUint32(std::string_view text, uint32_t* out);

// The whole of `text` must be one finite decimal floating-point number
// ("0.25", "1e-3", "-2"): "", "0.25x", " 1", "+1", "inf", "nan" and
// out-of-range values like "1e999" all fail. Callers check the range.
bool ParseDouble(std::string_view text, double* out);

// Parses "<prefix><N>" in its one canonical spelling, prefix +
// std::to_string(N) with N a uint32_t. A padded or overflowing name
// ("epoch_01", "epoch_4294967297") is not a numbered name, so it can never
// alias the directory it would otherwise parse to.
bool ParseNumberedName(std::string_view name, std::string_view prefix, uint32_t* out);

}  // namespace dcpi

#endif  // SRC_SUPPORT_PARSE_H_
