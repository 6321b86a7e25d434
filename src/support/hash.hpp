// Hashing utilities shared across the library.
//
// RSG canonicalization and RSRSG fixpoint detection hash whole graphs; the
// helpers here give us order-sensitive and order-insensitive combiners with
// decent avalanche behaviour (64-bit splitmix finalizer).
#pragma once

#include <cstdint>
#include <functional>
#include <string_view>
#include <type_traits>

namespace psa::support {

/// splitmix64 finalizer — cheap, well-distributed 64-bit mixer.
[[nodiscard]] constexpr std::uint64_t mix64(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Order-sensitive combiner: h' = mix(h xor mix(v)).
[[nodiscard]] constexpr std::uint64_t hash_combine(std::uint64_t seed,
                                                   std::uint64_t value) noexcept {
  return mix64(seed ^ mix64(value));
}

/// Order-insensitive combiner for multiset hashing (commutative +).
[[nodiscard]] constexpr std::uint64_t hash_accumulate_unordered(
    std::uint64_t seed, std::uint64_t value) noexcept {
  return seed + mix64(value);
}

/// Hash any integral or enum value through mix64.
template <typename T>
[[nodiscard]] constexpr std::uint64_t hash_value(T v) noexcept {
  if constexpr (std::is_enum_v<T>) {
    return mix64(static_cast<std::uint64_t>(
        static_cast<std::underlying_type_t<T>>(v)));
  } else {
    static_assert(std::is_integral_v<T>);
    return mix64(static_cast<std::uint64_t>(v));
  }
}

/// FNV-1a 64 over `bytes`, from `basis` (default: the standard offset
/// basis). It is persisted: snapshot envelope checksums, cache keys and
/// checkpoint unit keys are all FNV-1a values, so it must never change.
[[nodiscard]] constexpr std::uint64_t fnv1a(
    std::string_view bytes,
    std::uint64_t basis = 0xcbf29ce484222325ULL) noexcept {
  std::uint64_t h = basis;
  for (const char c : bytes) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// Hash a range of hashable elements, order-sensitively.
template <typename Range, typename Fn>
[[nodiscard]] std::uint64_t hash_range(const Range& r, Fn&& element_hash,
                                       std::uint64_t seed = 0x51ab5afeULL) {
  std::uint64_t h = seed;
  for (const auto& e : r) h = hash_combine(h, element_hash(e));
  return h;
}

}  // namespace psa::support
