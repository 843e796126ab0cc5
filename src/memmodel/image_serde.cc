/**
 * @file
 * FunctionalMemory image serialization for the persistent trace
 * store. The layout is deliberately dumb: a page count followed by
 * the pages sorted by page number, each page's struct contents
 * verbatim (data words, referenced bits, live bits). Sorting makes
 * the bytes a pure function of the memory contents, so the store's
 * content addressing and the round-trip tests can compare images
 * byte-for-byte. Integrity is the store's job (every section is
 * CRC-framed there); this layer only validates structure.
 */

#include <algorithm>
#include <cstring>

#include "memmodel/functional_memory.hh"

namespace fvc::memmodel {

namespace {

/** Serialized bytes per page: number + pad + the Page payload. */
constexpr size_t kPageRecordBytes = 8 + sizeof(Page);

} // namespace

std::vector<uint8_t>
FunctionalMemory::serialize() const
{
    std::vector<uint32_t> numbers;
    numbers.reserve(pages_.size());
    for (const auto &[num, page] : pages_)
        numbers.push_back(num);
    std::sort(numbers.begin(), numbers.end());

    std::vector<uint8_t> out;
    out.resize(8 + numbers.size() * kPageRecordBytes);
    uint8_t *p = out.data();
    const uint64_t count = numbers.size();
    std::memcpy(p, &count, 8);
    p += 8;
    for (uint32_t num : numbers) {
        const Page &page = *pages_.at(num);
        std::memcpy(p, &num, 4);
        std::memset(p + 4, 0, 4);
        std::memcpy(p + 8, &page, sizeof(Page));
        p += kPageRecordBytes;
    }
    return out;
}

util::Expected<FunctionalMemory>
FunctionalMemory::deserialize(const uint8_t *data, size_t bytes)
{
    using util::Error;
    using util::ErrorCode;

    if (bytes < 8) {
        return Error{ErrorCode::Truncated,
                     "image shorter than its page count", ""};
    }
    uint64_t count = 0;
    std::memcpy(&count, data, 8);
    if (bytes != 8 + count * kPageRecordBytes) {
        return Error{ErrorCode::Format,
                     "image size does not match page count", ""};
    }

    FunctionalMemory out;
    const uint8_t *p = data + 8;
    uint64_t prev_num = 0;
    for (uint64_t i = 0; i < count; ++i, p += kPageRecordBytes) {
        uint32_t num = 0;
        uint32_t pad = 0;
        std::memcpy(&num, p, 4);
        std::memcpy(&pad, p + 4, 4);
        if (pad != 0) {
            return Error{ErrorCode::Format,
                         "nonzero padding in image page record", ""};
        }
        // Strictly increasing order doubles as a duplicate check
        // and keeps serialize(deserialize(x)) == x.
        if (i != 0 && num <= prev_num) {
            return Error{ErrorCode::Format,
                         "image pages out of order", ""};
        }
        prev_num = num;
        auto page = std::make_unique<Page>();
        std::memcpy(page.get(), p + 8, sizeof(Page));
        out.pages_.emplace(num, std::move(page));
    }
    return out;
}

} // namespace fvc::memmodel
