#include "util/crc32.hh"

#include <array>
#include <bit>
#include <cstring>

#if defined(__x86_64__) && defined(__GNUC__)
#define FVC_CRC32_CAN_FOLD 1
#include <immintrin.h>
#else
#define FVC_CRC32_CAN_FOLD 0
#endif

namespace fvc::util {

namespace {

/** Slicing-by-8 tables: table 0 is the classic byte-at-a-time
 * table; table j advances a byte's contribution j more bytes. */
constexpr std::array<std::array<uint32_t, 256>, 8>
makeTables()
{
    std::array<std::array<uint32_t, 256>, 8> t{};
    for (uint32_t i = 0; i < 256; ++i) {
        uint32_t c = i;
        for (int k = 0; k < 8; ++k)
            c = (c >> 1) ^ ((c & 1) ? 0xedb88320u : 0u);
        t[0][i] = c;
    }
    for (uint32_t i = 0; i < 256; ++i) {
        for (size_t j = 1; j < t.size(); ++j)
            t[j][i] = (t[j - 1][i] >> 8) ^ t[0][t[j - 1][i] & 0xff];
    }
    return t;
}

constexpr auto kTables = makeTables();

#if FVC_CRC32_CAN_FOLD

/** The fold needs four 16-byte accumulators' worth of input. */
constexpr size_t kFoldMinBytes = 64;

#define FVC_CRC32_FOLD_TARGET __attribute__((target("pclmul,sse4.1")))

__m128i
load(const uint8_t *at)
{
    return _mm_loadu_si128(reinterpret_cast<const __m128i *>(at));
}

/** One fold step: carry-less multiply both halves of @p x by their
 * constants in @p k, then add (xor) @p y. */
FVC_CRC32_FOLD_TARGET inline __m128i
fold(__m128i x, __m128i k, __m128i y)
{
    const __m128i lo = _mm_clmulepi64_si128(x, k, 0x00);
    const __m128i hi = _mm_clmulepi64_si128(x, k, 0x11);
    return _mm_xor_si128(_mm_xor_si128(hi, lo), y);
}

/**
 * Fold @p len bytes (a multiple of 16, at least 64) into the
 * running CRC register @p crc (the inverted CRC value, as the table
 * loop keeps it) and return the new register. Four 128-bit
 * accumulators fold 64 bytes per step, then fold into one, then a
 * Barrett reduction brings 64 bits to 32. The constants are the
 * bit-reflected ones for 0xEDB88320 from Gopal et al., "Fast CRC
 * Computation for Generic Polynomials Using PCLMULQDQ Instruction"
 * (Intel, 2009).
 */
FVC_CRC32_FOLD_TARGET uint32_t
foldBulk(const uint8_t *p, size_t len, uint32_t crc)
{
    const __m128i k1k2 = _mm_set_epi64x(0x01c6e41596, 0x0154442bd4);
    const __m128i k3k4 = _mm_set_epi64x(0x00ccaa009e, 0x01751997d0);
    const __m128i k5k0 = _mm_set_epi64x(0, 0x0163cd6124);
    const __m128i poly = _mm_set_epi64x(0x01f7011641, 0x01db710641);
    const __m128i low32 = _mm_setr_epi32(~0, 0, ~0, 0);

    const __m128i seed = _mm_cvtsi32_si128(static_cast<int>(crc));
    __m128i x1 = _mm_xor_si128(load(p), seed);
    __m128i x2 = load(p + 16);
    __m128i x3 = load(p + 32);
    __m128i x4 = load(p + 48);
    p += 64;
    len -= 64;
    for (; len >= 64; p += 64, len -= 64) {
        x1 = fold(x1, k1k2, load(p));
        x2 = fold(x2, k1k2, load(p + 16));
        x3 = fold(x3, k1k2, load(p + 32));
        x4 = fold(x4, k1k2, load(p + 48));
    }

    x1 = fold(x1, k3k4, x2);
    x1 = fold(x1, k3k4, x3);
    x1 = fold(x1, k3k4, x4);
    for (; len >= 16; p += 16, len -= 16)
        x1 = fold(x1, k3k4, load(p));

    // 128 -> 64 bits.
    x2 = _mm_clmulepi64_si128(x1, k3k4, 0x10);
    x1 = _mm_xor_si128(_mm_srli_si128(x1, 8), x2);
    x2 = _mm_srli_si128(x1, 4);
    x1 = _mm_clmulepi64_si128(_mm_and_si128(x1, low32), k5k0, 0x00);
    x1 = _mm_xor_si128(x1, x2);

    // Barrett reduction, 64 -> 32 bits.
    x2 = _mm_clmulepi64_si128(_mm_and_si128(x1, low32), poly, 0x10);
    x2 = _mm_clmulepi64_si128(_mm_and_si128(x2, low32), poly, 0x00);
    x1 = _mm_xor_si128(x1, x2);
    return static_cast<uint32_t>(_mm_extract_epi32(x1, 1));
}

#endif // FVC_CRC32_CAN_FOLD

} // namespace

uint32_t
crc32Portable(const void *data, size_t len, uint32_t crc)
{
    // Slicing-by-8 folds eight input bytes per iteration instead of
    // one; table 0 alone handles the tail and big-endian hosts.
    const auto *p = static_cast<const uint8_t *>(data);
    crc = ~crc;
    if constexpr (std::endian::native == std::endian::little) {
        while (len >= 8) {
            uint32_t lo = 0;
            uint32_t hi = 0;
            std::memcpy(&lo, p, 4);
            std::memcpy(&hi, p + 4, 4);
            lo ^= crc;
            crc = kTables[7][lo & 0xff] ^
                  kTables[6][(lo >> 8) & 0xff] ^
                  kTables[5][(lo >> 16) & 0xff] ^
                  kTables[4][lo >> 24] ^
                  kTables[3][hi & 0xff] ^
                  kTables[2][(hi >> 8) & 0xff] ^
                  kTables[1][(hi >> 16) & 0xff] ^
                  kTables[0][hi >> 24];
            p += 8;
            len -= 8;
        }
    }
    for (size_t i = 0; i < len; ++i)
        crc = kTables[0][(crc ^ p[i]) & 0xff] ^ (crc >> 8);
    return ~crc;
}

bool
crc32Folded()
{
#if FVC_CRC32_CAN_FOLD
    static const bool folded = [] {
        __builtin_cpu_init();
        return __builtin_cpu_supports("pclmul") &&
               __builtin_cpu_supports("sse4.1");
    }();
    return folded;
#else
    return false;
#endif
}

uint32_t
crc32(const void *data, size_t len, uint32_t crc)
{
#if FVC_CRC32_CAN_FOLD
    if (len >= kFoldMinBytes && crc32Folded()) {
        const auto *p = static_cast<const uint8_t *>(data);
        const size_t bulk = len & ~size_t{15};
        crc = ~foldBulk(p, bulk, ~crc);
        return crc32Portable(p + bulk, len - bulk, crc);
    }
#endif
    return crc32Portable(data, len, crc);
}

} // namespace fvc::util
