#include "src/support/parse.h"

#include <charconv>
#include <cmath>
#include <string>

namespace dcpi {

bool ParseUint32(std::string_view text, uint32_t* out) {
  uint32_t value = 0;
  const char* end = text.data() + text.size();
  auto [stop, error] = std::from_chars(text.data(), end, value);
  if (error != std::errc() || stop != end) return false;
  *out = value;
  return true;
}

bool ParseDouble(std::string_view text, double* out) {
  double value = 0;
  const char* end = text.data() + text.size();
  auto [stop, error] = std::from_chars(text.data(), end, value);
  if (error != std::errc() || stop != end || !std::isfinite(value)) return false;
  *out = value;
  return true;
}

bool ParseNumberedName(std::string_view name, std::string_view prefix, uint32_t* out) {
  if (!name.starts_with(prefix)) return false;
  std::string_view digits = name.substr(prefix.size());
  uint32_t value = 0;
  if (!ParseUint32(digits, &value) || digits != std::to_string(value)) return false;
  *out = value;
  return true;
}

}  // namespace dcpi
