/**
 * @file
 * FrequentValueEncoding: the b-bit code <-> 32-bit value map of
 * Figure 7. With b code bits, 2^b - 1 frequent values are encodable
 * and the all-ones code means "non-frequent value here".
 */

#ifndef FVC_CORE_ENCODING_HH_
#define FVC_CORE_ENCODING_HH_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "trace/record.hh"
#include "util/logging.hh"

namespace fvc::core {

using trace::Word;

/** A b-bit code, held in one byte. */
using Code = uint8_t;

/**
 * Encodes/decodes the top frequently accessed values.
 *
 * The paper's configurations use 1, 2, or 3 code bits (top 1, 3, or
 * 7 values); this implementation accepts up to 8 bits.
 */
class FrequentValueEncoding
{
  public:
    /**
     * @param values the frequent values, most frequent first; at
     *               most 2^code_bits - 1 are used
     * @param code_bits width of a code in bits (1..8)
     */
    FrequentValueEncoding(const std::vector<Word> &values,
                          unsigned code_bits);

    unsigned codeBits() const { return code_bits_; }

    /** The code meaning "not a frequent value". */
    Code nonFrequentCode() const { return non_frequent_; }

    /** Maximum number of encodable values for this width. */
    uint32_t capacity() const { return non_frequent_; }

    /** Number of values actually encoded. */
    uint32_t valueCount() const
    {
        return static_cast<uint32_t>(values_.size());
    }

    /** True iff @p value has a code. */
    bool isFrequent(Word value) const
    {
        return lookup(value) != non_frequent_;
    }

    /** Code for @p value, or nonFrequentCode() if it has none. */
    Code encode(Word value) const { return lookup(value); }

    /**
     * Value for @p code; nullopt for the non-frequent code.
     * Calls fvc_panic for codes beyond the encoded set.
     */
    std::optional<Word>
    decode(Code code) const
    {
        if (code == non_frequent_)
            return std::nullopt;
        fvc_assert(code < values_.size(),
                   "decode of unassigned code ", unsigned(code));
        return values_[code];
    }

    /**
     * Encode a line: @p codes[i] receives the code of @p words[i]
     * (the spans have equal length).
     *
     * @return how many of the words are frequent
     */
    uint32_t encodeLine(std::span<const Word> words,
                        std::span<Code> codes) const;

    /** The encoded values in code order. */
    const std::vector<Word> &values() const { return values_; }

  private:
    /**
     * Probe the flat sorted table. This runs on *every* access of a
     * DmcFvcSystem (the FVC tags and values are probed in parallel
     * with the DMC), so it is a branchless binary search over at
     * most 255 words instead of a hash-map lookup: the only
     * unpredictable branch is the final equality check.
     */
    Code
    lookup(Word value) const
    {
        const Word *base = sorted_values_.data();
        size_t n = sorted_values_.size();
        while (n > 1) {
            size_t half = n / 2;
            base += (base[half - 1] < value) ? half : 0; // cmov
            n -= half;
        }
        return *base == value
                   ? sorted_codes_[static_cast<size_t>(
                         base - sorted_values_.data())]
                   : non_frequent_;
    }

    unsigned code_bits_;
    Code non_frequent_;
    /** The encoded values, in code order. */
    std::vector<Word> values_;
    /** The same values ascending, with their codes alongside. */
    std::vector<Word> sorted_values_;
    std::vector<Code> sorted_codes_;
};

} // namespace fvc::core

#endif // FVC_CORE_ENCODING_HH_
