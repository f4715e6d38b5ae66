#include "core/mathutil.hpp"

#include <limits>

#include "core/error.hpp"

namespace otis::core {

std::int64_t floor_mod(std::int64_t value, std::int64_t n) noexcept {
  std::int64_t r = value % n;
  if (r != 0 && ((r < 0) != (n < 0))) {
    r += n;
  }
  return r;
}

std::int64_t ipow(std::int64_t base, unsigned exp) {
  std::int64_t result = 1;
  for (unsigned i = 0; i < exp; ++i) {
    OTIS_REQUIRE(base == 0 ||
                     result <= std::numeric_limits<std::int64_t>::max() / base,
                 "ipow: int64 overflow");
    result *= base;
  }
  return result;
}

unsigned ceil_log(std::int64_t base, std::int64_t value) {
  OTIS_REQUIRE(base >= 2, "ceil_log: base must be >= 2");
  OTIS_REQUIRE(value >= 1, "ceil_log: value must be >= 1");
  unsigned k = 0;
  std::int64_t power = 1;
  while (power < value) {
    // power < value <= INT64_MAX, so power * base cannot be needed beyond
    // the first power >= value; guard anyway to stay overflow-safe.
    if (power > std::numeric_limits<std::int64_t>::max() / base) {
      return k + 1;
    }
    power *= base;
    ++k;
  }
  return k;
}

unsigned floor_log(std::int64_t base, std::int64_t value) {
  OTIS_REQUIRE(base >= 2, "floor_log: base must be >= 2");
  OTIS_REQUIRE(value >= 1, "floor_log: value must be >= 1");
  unsigned k = 0;
  std::int64_t power = 1;
  while (power <= value / base) {
    power *= base;
    ++k;
  }
  return k;
}

std::int64_t gcd64(std::int64_t a, std::int64_t b) noexcept {
  if (a < 0) a = -a;
  if (b < 0) b = -b;
  while (b != 0) {
    std::int64_t t = a % b;
    a = b;
    b = t;
  }
  return a;
}

bool is_power_of(std::int64_t base, std::int64_t value) {
  OTIS_REQUIRE(base >= 2, "is_power_of: base must be >= 2");
  if (value < 1) {
    return false;
  }
  while (value % base == 0) {
    value /= base;
  }
  return value == 1;
}

std::int64_t kautz_order(int degree, int diameter) {
  OTIS_REQUIRE(degree >= 1, "kautz_order: degree must be >= 1");
  OTIS_REQUIRE(diameter >= 1, "kautz_order: diameter must be >= 1");
  return ipow(degree, static_cast<unsigned>(diameter - 1)) * (degree + 1);
}

std::int64_t saturating_add(std::int64_t a, std::int64_t b) noexcept {
  std::int64_t sum = 0;
  return __builtin_add_overflow(a, b, &sum)
             ? (a > 0 ? std::numeric_limits<std::int64_t>::max()
                      : std::numeric_limits<std::int64_t>::min())
             : sum;
}

std::int64_t saturating_mul(std::int64_t a, std::int64_t b) noexcept {
  std::int64_t product = 0;
  return __builtin_mul_overflow(a, b, &product)
             ? ((a > 0) == (b > 0) ? std::numeric_limits<std::int64_t>::max()
                                   : std::numeric_limits<std::int64_t>::min())
             : product;
}

}  // namespace otis::core
