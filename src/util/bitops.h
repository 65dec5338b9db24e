/**
 * @file
 * Bit-manipulation helpers for power-of-two cache geometry math.
 */

#ifndef DYNEX_UTIL_BITOPS_H
#define DYNEX_UTIL_BITOPS_H

#include <bit>
#include <cstdint>

#include "util/types.h"

namespace dynex
{

/** @return true iff @p value is a (nonzero) power of two. */
constexpr bool
isPowerOfTwo(std::uint64_t value)
{
    return value != 0 && (value & (value - 1)) == 0;
}

/**
 * Floor of the base-2 logarithm.
 *
 * @param value must be nonzero.
 * @return largest n such that 2^n <= value.
 */
constexpr unsigned
floorLog2(std::uint64_t value)
{
    return 63u - static_cast<unsigned>(std::countl_zero(value));
}

/**
 * Ceiling of the base-2 logarithm.
 *
 * @param value must be nonzero.
 * @return smallest n such that 2^n >= value.
 */
constexpr unsigned
ceilLog2(std::uint64_t value)
{
    return value == 1 ? 0u : floorLog2(value - 1) + 1;
}

/** @return @p addr rounded down to a multiple of the power-of-two @p align. */
constexpr Addr
alignDown(Addr addr, std::uint64_t align)
{
    return addr & ~(align - 1);
}

/** @return @p addr rounded up to a multiple of the power-of-two @p align. */
constexpr Addr
alignUp(Addr addr, std::uint64_t align)
{
    return (addr + align - 1) & ~(align - 1);
}

/** @return a mask with the low @p bits bits set. */
constexpr std::uint64_t
lowMask(unsigned bits)
{
    return bits >= 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << bits) - 1;
}

/** Extract @p width bits of @p value starting at bit @p offset. */
constexpr std::uint64_t
bitField(std::uint64_t value, unsigned offset, unsigned width)
{
    return (value >> offset) & lowMask(width);
}

/**
 * Fibonacci (multiply-shift) hash for block-number hash tables: one
 * multiply on the critical path. Block numbers are dense and strided;
 * multiplying by the golden-ratio constant spreads consecutive keys
 * far apart, and a linear-probe table tolerates the weaker low-bit
 * mixing. Take the slot index from the HIGH bits (shift, not mask).
 */
constexpr std::uint64_t
mixHash(std::uint64_t x)
{
    return x * 0x9e3779b97f4a7c15ULL;
}

} // namespace dynex

#endif // DYNEX_UTIL_BITOPS_H
