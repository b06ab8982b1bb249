// Strict numeric flag values for the example drivers: a missing, empty,
// signed, non-numeric, out-of-range or trailing-garbage value is a usage
// error (exit 2), never a silent 0 from std::atoi or a partial strtoull.
#pragma once

#include <charconv>
#include <cstring>

namespace dr::examples {

/// Parses all of `s` as a base-10 unsigned T into `out`. False (and `out`
/// untouched) for nullptr, "", a sign, any non-digit, or a value that does
/// not fit in T.
template <typename T>
bool parse_unsigned(const char* s, T& out) {
  if (s == nullptr) return false;
  const char* end = s + std::strlen(s);
  T value{};
  const auto [ptr, ec] = std::from_chars(s, end, value);
  if (ec != std::errc{} || ptr != end) return false;
  out = value;
  return true;
}

}  // namespace dr::examples
