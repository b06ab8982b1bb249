// Strict numeric flag values for the example drivers and tools/loadgen: a
// missing, empty, signed, non-numeric, out-of-range or trailing-garbage value
// is a usage error (exit 2), never a silent 0 from std::atoi, std::atof or a
// partial strtoull.
#pragma once

#include <charconv>
#include <cmath>
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

/// Parses all of `s` as a finite decimal double >= 0 into `out`. False (and
/// `out` untouched) for nullptr, "", a sign, inf/nan, or trailing garbage.
inline bool parse_nonnegative_double(const char* s, double& out) {
  if (s == nullptr || *s == '-') return false;
  const char* end = s + std::strlen(s);
  double value = 0.0;
  const auto [ptr, ec] = std::from_chars(s, end, value);
  if (ec != std::errc{} || ptr != end || !std::isfinite(value)) return false;
  out = value;
  return true;
}

/// As parse_nonnegative_double, and also false for 0.
inline bool parse_positive_double(const char* s, double& out) {
  double value = 0.0;
  if (!parse_nonnegative_double(s, value) || value <= 0.0) return false;
  out = value;
  return true;
}

}  // namespace dr::examples
