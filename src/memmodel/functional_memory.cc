#include "memmodel/functional_memory.hh"

#include "util/logging.hh"

namespace fvc::memmodel {

namespace {

void
setBit(uint64_t *bits, uint32_t i)
{
    bits[i / 64] |= (1ull << (i % 64));
}

void
clearBit(uint64_t *bits, uint32_t i)
{
    bits[i / 64] &= ~(1ull << (i % 64));
}

bool
testBit(const uint64_t *bits, uint32_t i)
{
    return (bits[i / 64] >> (i % 64)) & 1;
}

} // namespace

FunctionalMemory::FunctionalMemory(const FunctionalMemory &other)
{
    *this = other;
}

FunctionalMemory &
FunctionalMemory::operator=(const FunctionalMemory &other)
{
    if (this == &other)
        return *this;
    pages_.clear();
    last_page_ = nullptr;
    for (const auto &[num, page] : other.pages_)
        pages_[num] = std::make_unique<Page>(*page);
    return *this;
}

FunctionalMemory::FunctionalMemory(FunctionalMemory &&other) noexcept
    : pages_(std::move(other.pages_)),
      last_page_num_(other.last_page_num_),
      last_page_(other.last_page_)
{
    // The pages (and thus the cached pointer) moved here; the
    // source must not serve stale cache hits if reused.
    other.last_page_ = nullptr;
}

FunctionalMemory &
FunctionalMemory::operator=(FunctionalMemory &&other) noexcept
{
    if (this == &other)
        return *this;
    pages_ = std::move(other.pages_);
    last_page_num_ = other.last_page_num_;
    last_page_ = other.last_page_;
    other.last_page_ = nullptr;
    return *this;
}

Page &
FunctionalMemory::pageFor(Addr addr)
{
    uint32_t num = pageNumber(addr);
    if (last_page_ && last_page_num_ == num)
        return *last_page_;
    auto &slot = pages_[num];
    if (!slot)
        slot = std::make_unique<Page>();
    last_page_num_ = num;
    last_page_ = slot.get();
    return *slot;
}

const Page *
FunctionalMemory::pageIfPresent(Addr addr) const
{
    uint32_t num = pageNumber(addr);
    if (last_page_ && last_page_num_ == num)
        return last_page_;
    auto it = pages_.find(num);
    return it == pages_.end() ? nullptr : it->second.get();
}

Word
FunctionalMemory::read(Addr addr) const
{
    const Page *page = pageIfPresent(addr);
    return page ? page->data[pageOffsetWords(addr)] : 0;
}

Word
FunctionalMemory::read(Addr addr)
{
    uint32_t num = pageNumber(addr);
    if (!(last_page_ && last_page_num_ == num)) {
        auto it = pages_.find(num);
        if (it == pages_.end())
            return 0;
        last_page_num_ = num;
        last_page_ = it->second.get();
    }
    return last_page_->data[pageOffsetWords(addr)];
}

void
FunctionalMemory::write(Addr addr, Word value)
{
    Page &page = pageFor(addr);
    uint32_t off = pageOffsetWords(addr);
    page.data[off] = value;
    setBit(page.referenced, off);
    setBit(page.live, off);
}

Word
FunctionalMemory::readReferenced(Addr addr)
{
    Page &page = pageFor(addr);
    uint32_t off = pageOffsetWords(addr);
    setBit(page.referenced, off);
    setBit(page.live, off);
    return page.data[off];
}

bool
FunctionalMemory::isReferenced(Addr addr) const
{
    const Page *page = pageIfPresent(addr);
    return page && testBit(page->referenced, pageOffsetWords(addr));
}

void
FunctionalMemory::allocRegion(Addr base, uint64_t bytes)
{
    for (uint64_t off = 0; off < bytes; off += trace::kWordBytes) {
        Page &page = pageFor(base + static_cast<Addr>(off));
        setBit(page.live, pageOffsetWords(base + static_cast<Addr>(off)));
    }
}

void
FunctionalMemory::freeRegion(Addr base, uint64_t bytes)
{
    for (uint64_t off = 0; off < bytes; off += trace::kWordBytes) {
        Addr a = base + static_cast<Addr>(off);
        auto it = pages_.find(pageNumber(a));
        if (it == pages_.end())
            continue;
        uint32_t word = pageOffsetWords(a);
        clearBit(it->second->live, word);
        clearBit(it->second->referenced, word);
    }
}

bool
FunctionalMemory::isInteresting(Addr addr) const
{
    const Page *page = pageIfPresent(addr);
    if (!page)
        return false;
    uint32_t off = pageOffsetWords(addr);
    return testBit(page->referenced, off) && testBit(page->live, off);
}

uint64_t
FunctionalMemory::interestingWords() const
{
    uint64_t n = 0;
    for (const auto &[num, page] : pages_) {
        for (uint32_t chunk = 0; chunk < kPageWords / 64; ++chunk) {
            uint64_t m = page->referenced[chunk] & page->live[chunk];
            n += static_cast<uint64_t>(__builtin_popcountll(m));
        }
    }
    return n;
}

void
FunctionalMemory::forEachInteresting(
    const std::function<void(Addr, Word)> &visitor) const
{
    for (const auto &[num, page] : pages_) {
        Addr base = num * kPageBytes;
        for (uint32_t chunk = 0; chunk < kPageWords / 64; ++chunk) {
            uint64_t m = page->referenced[chunk] & page->live[chunk];
            while (m) {
                uint32_t bit = static_cast<uint32_t>(
                    __builtin_ctzll(m));
                m &= m - 1;
                uint32_t word = chunk * 64 + bit;
                visitor(base + word * trace::kWordBytes,
                        page->data[word]);
            }
        }
    }
}

void
FunctionalMemory::clear()
{
    pages_.clear();
    last_page_ = nullptr;
}

bool
FunctionalMemory::sameInterestingContents(const FunctionalMemory &a,
                                          const FunctionalMemory &b)
{
    bool same = true;
    a.forEachInteresting([&](Addr addr, Word value) {
        if (!same)
            return;
        if (!b.isInteresting(addr) || b.read(addr) != value)
            same = false;
    });
    if (!same)
        return false;
    b.forEachInteresting([&](Addr addr, Word value) {
        if (!same)
            return;
        if (!a.isInteresting(addr) || a.read(addr) != value)
            same = false;
    });
    return same;
}

} // namespace fvc::memmodel
