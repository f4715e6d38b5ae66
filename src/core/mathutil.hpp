#pragma once
/// \file mathutil.hpp
/// Small integer math helpers used throughout the topology constructions.
///
/// The Imase-Itoh adjacency rule `v = (-d*u - alpha) mod n` works with
/// negative values, so the floor-style modulo here (result always in
/// [0, n)) is load-bearing: C++ `%` truncates toward zero instead.

#include <cstdint>

namespace otis::core {

/// Mathematical (floor) modulo: result is in [0, n) for n > 0, even for
/// negative `value`.
[[nodiscard]] std::int64_t floor_mod(std::int64_t value,
                                     std::int64_t n) noexcept;

/// Integer power base^exp; throws on overflow of int64.
[[nodiscard]] std::int64_t ipow(std::int64_t base, unsigned exp);

/// Smallest k with base^k >= value (value >= 1, base >= 2); this is
/// ceil(log_base(value)). Matches the Imase-Itoh diameter formula
/// `diameter(II(d, n)) = ceil(log_d n)`.
[[nodiscard]] unsigned ceil_log(std::int64_t base, std::int64_t value);

/// Largest k with base^k <= value (value >= 1, base >= 2).
[[nodiscard]] unsigned floor_log(std::int64_t base, std::int64_t value);

/// Greatest common divisor (non-negative result).
[[nodiscard]] std::int64_t gcd64(std::int64_t a, std::int64_t b) noexcept;

/// True when value == base^k for some k >= 0.
[[nodiscard]] bool is_power_of(std::int64_t base, std::int64_t value);

/// a + b and a * b clamped to the int64 range instead of overflowing
/// (for estimates that must stay ordered, never wrap, at hostile sizes).
[[nodiscard]] std::int64_t saturating_add(std::int64_t a,
                                          std::int64_t b) noexcept;
[[nodiscard]] std::int64_t saturating_mul(std::int64_t a,
                                          std::int64_t b) noexcept;

/// Number of Kautz vertices: d^(k-1) * (d+1). Throws on overflow.
[[nodiscard]] std::int64_t kautz_order(int degree, int diameter);

}  // namespace otis::core
