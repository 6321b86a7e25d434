// Whole-value numeric parsing for command-line flags.
#pragma once

#include <charconv>
#include <string_view>
#include <system_error>

namespace psa::support {

/// Parses a whole numeric flag value. std::stoi and its kin parse only a
/// prefix ("2x" reads as 2), throw on no digits at all, and wrap a leading
/// minus on unsigned targets ("-1" reads as 2^64-1); from_chars over the
/// full text rejects all three, and out-of-range values too.
template <typename Number>
[[nodiscard]] bool parse_number(std::string_view text, Number& out) {
  const char* const end = text.data() + text.size();
  const auto [stop, error] = std::from_chars(text.data(), end, out);
  return error == std::errc() && stop == end;
}

}  // namespace psa::support
