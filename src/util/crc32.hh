/**
 * @file
 * CRC-32 (IEEE 802.3, polynomial 0xEDB88320): the checksum of every
 * trace-store section and chunk, result record, fabric spill frame
 * and daemon frame. Any single-bit corruption of a checksummed
 * range is guaranteed to be detected.
 */

#ifndef FVC_UTIL_CRC32_HH_
#define FVC_UTIL_CRC32_HH_

#include <cstddef>
#include <cstdint>

namespace fvc::util {

/**
 * CRC-32 over @p len bytes. Pass a previous return value as @p crc
 * to checksum incrementally: chained calls over consecutive spans
 * equal one call over their concatenation.
 *
 * On an x86-64 CPU with PCLMULQDQ and SSE4.1 the 16-byte multiple of
 * any buffer of at least 64 bytes is folded with carry-less
 * multiplies (crc32Folded()), and crc32Portable() finishes the tail.
 * Every path returns the same value.
 */
uint32_t crc32(const void *data, size_t len, uint32_t crc = 0);

/** The slicing-by-8 table CRC-32: crc32()'s tail and short-buffer
 * path, its fallback on other CPUs, and its test reference. */
uint32_t crc32Portable(const void *data, size_t len,
                       uint32_t crc = 0);

/** True iff crc32() folds with PCLMULQDQ on this CPU (decided once,
 * from the CPU's features). */
bool crc32Folded();

} // namespace fvc::util

#endif // FVC_UTIL_CRC32_HH_
