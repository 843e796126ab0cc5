/**
 * @file
 * Bit-manipulation helpers used throughout the cache models.
 */

#ifndef FVC_UTIL_BITOPS_HH_
#define FVC_UTIL_BITOPS_HH_

#include <bit>
#include <cstddef>
#include <cstdint>

#include "util/logging.hh"

namespace fvc::util {

/** True iff @p x is a (nonzero) power of two. */
constexpr bool
isPowerOf2(uint64_t x)
{
    return x != 0 && (x & (x - 1)) == 0;
}

/** floor(log2(x)); @p x must be nonzero. */
constexpr unsigned
floorLog2(uint64_t x)
{
    return 63u - static_cast<unsigned>(std::countl_zero(x | 1));
}

/** ceil(log2(x)); @p x must be nonzero. */
constexpr unsigned
ceilLog2(uint64_t x)
{
    return x <= 1 ? 0 : floorLog2(x - 1) + 1;
}

/** A mask with the low @p bits bits set. */
constexpr uint64_t
mask(unsigned bits)
{
    return bits >= 64 ? ~0ull : ((1ull << bits) - 1);
}

/** Extract bits [lo, lo+len) of @p x. */
constexpr uint64_t
bits(uint64_t x, unsigned lo, unsigned len)
{
    return (x >> lo) & mask(len);
}

/** Round @p x down to a multiple of @p align (power of two). */
constexpr uint64_t
alignDown(uint64_t x, uint64_t align)
{
    return x & ~(align - 1);
}

/** Round @p x up to a multiple of @p align (power of two). */
constexpr uint64_t
alignUp(uint64_t x, uint64_t align)
{
    return (x + align - 1) & ~(align - 1);
}

/** Divide rounding up. */
constexpr uint64_t
divCeil(uint64_t a, uint64_t b)
{
    return (a + b - 1) / b;
}

} // namespace fvc::util

#endif // FVC_UTIL_BITOPS_HH_
