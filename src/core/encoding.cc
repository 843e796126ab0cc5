#include "core/encoding.hh"

#include <algorithm>

#include "util/bitops.hh"
#include "util/logging.hh"

namespace fvc::core {

FrequentValueEncoding::FrequentValueEncoding(
    const std::vector<Word> &values, unsigned code_bits)
    : code_bits_(code_bits),
      non_frequent_(static_cast<Code>(util::mask(code_bits)))
{
    fvc_assert(code_bits >= 1 && code_bits <= 8,
               "code width must be 1..8 bits, got ", code_bits);
    uint32_t cap = capacity();
    for (Word v : values) {
        if (values_.size() >= cap)
            break;
        if (std::find(values_.begin(), values_.end(), v) !=
            values_.end()) {
            continue; // ignore duplicates
        }
        values_.push_back(v);
    }
    fvc_assert(!values_.empty(),
               "encoding requires at least one frequent value");

    sorted_values_ = values_;
    std::sort(sorted_values_.begin(), sorted_values_.end());
    sorted_codes_.resize(sorted_values_.size());
    for (size_t i = 0; i < sorted_values_.size(); ++i) {
        auto it = std::find(values_.begin(), values_.end(),
                            sorted_values_[i]);
        sorted_codes_[i] =
            static_cast<Code>(it - values_.begin());
    }
}

uint32_t
FrequentValueEncoding::encodeLine(std::span<const Word> words,
                                  std::span<Code> codes) const
{
    fvc_assert(words.size() == codes.size(),
               "encodeLine arity mismatch");
    uint32_t frequent = 0;
    for (size_t w = 0; w < words.size(); ++w) {
        codes[w] = lookup(words[w]);
        frequent += codes[w] != non_frequent_;
    }
    return frequent;
}

} // namespace fvc::core
