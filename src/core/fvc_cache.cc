#include "core/fvc_cache.hh"

#include <algorithm>

#include "util/bitops.hh"
#include "util/logging.hh"
#include "util/strings.hh"

namespace fvc::core {

void
FvcConfig::validate() const
{
    if (!util::isPowerOf2(entries))
        fvc_fatal("FVC entries must be a power of two: ", entries);
    if (!util::isPowerOf2(line_bytes) || line_bytes < trace::kWordBytes)
        fvc_fatal("bad FVC line size: ", line_bytes);
    if (code_bits < 1 || code_bits > 8)
        fvc_fatal("bad FVC code width: ", code_bits);
    if (assoc == 0 || entries % assoc != 0 ||
        !util::isPowerOf2(entries / assoc)) {
        fvc_fatal("bad FVC associativity");
    }
}

uint64_t
FvcConfig::storageBits() const
{
    unsigned offset_bits = util::floorLog2(line_bytes);
    unsigned index_bits = util::floorLog2(sets());
    uint64_t tag_bits = 32 - offset_bits - index_bits;
    uint64_t per_entry =
        tag_bits + 2 + static_cast<uint64_t>(wordsPerLine()) * code_bits;
    return per_entry * entries;
}

std::string
FvcConfig::describe() const
{
    return std::to_string(entries) + "-entry FVC (" +
           std::to_string((1u << code_bits) - 1) + " values, " +
           std::to_string(line_bytes) + "B lines)";
}

FrequentValueCache::FrequentValueCache(const FvcConfig &config,
                                       FrequentValueEncoding encoding)
    : config_(config), encoding_(std::move(encoding))
{
    config_.validate();
    fvc_assert(encoding_.codeBits() == config_.code_bits,
               "encoding width does not match FVC config");
    words_per_line_ = config_.wordsPerLine();
    entries_.resize(config_.entries);
    codes_.assign(static_cast<size_t>(config_.entries) *
                      words_per_line_,
                  encoding_.nonFrequentCode());
    evicted_codes_.assign(words_per_line_, 0);
    offset_bits_ = util::floorLog2(config_.line_bytes);
    tag_shift_ = offset_bits_ + util::floorLog2(config_.sets());
    set_mask_ = config_.sets() - 1;
}

Addr
FrequentValueCache::baseOf(const Entry &entry, uint32_t set) const
{
    return static_cast<Addr>(
        (entry.tag << (offsetBits() + indexBits())) |
        (static_cast<uint64_t>(set) << offsetBits()));
}

FrequentValueCache::Entry *
FrequentValueCache::findEntry(Addr addr)
{
    uint32_t set = setIndex(addr);
    uint64_t tag = tagOf(addr);
    for (uint32_t way = 0; way < config_.assoc; ++way) {
        Entry &e = entries_[static_cast<size_t>(set) * config_.assoc +
                            way];
        if (e.valid && e.tag == tag)
            return &e;
    }
    return nullptr;
}

const FrequentValueCache::Entry *
FrequentValueCache::findEntry(Addr addr) const
{
    return const_cast<FrequentValueCache *>(this)->findEntry(addr);
}

FrequentValueCache::Entry &
FrequentValueCache::victimEntry(uint32_t set)
{
    Entry *best = nullptr;
    for (uint32_t way = 0; way < config_.assoc; ++way) {
        Entry &e = entries_[static_cast<size_t>(set) * config_.assoc +
                            way];
        if (!e.valid)
            return e;
        if (!best || e.stamp < best->stamp)
            best = &e;
    }
    return *best;
}

uint32_t
FrequentValueCache::frequentIn(std::span<const Code> codes) const
{
    uint32_t n = 0;
    for (Code c : codes)
        n += c != encoding_.nonFrequentCode();
    return n;
}

FrequentValueCache::Claim
FrequentValueCache::claim(Addr addr, bool dirty)
{
    uint32_t set = setIndex(addr);
    Entry &slot = victimEntry(set);
    Claim out{codesOf(slot), std::nullopt};
    if (slot.valid) {
        // The slot's codes are about to be overwritten: save them.
        std::copy(out.codes.begin(), out.codes.end(),
                  evicted_codes_.begin());
        out.evicted = FvcEvicted{baseOf(slot, set), slot.dirty,
                                 evicted_codes_};
        frequent_codes_ -= frequentIn(out.codes);
    } else {
        ++valid_entries_;
    }
    slot.tag = tagOf(addr);
    slot.valid = true;
    slot.dirty = dirty;
    slot.stamp = ++clock_;
    return out;
}

FvcEvicted
FrequentValueCache::retire(Entry &entry, uint32_t set)
{
    FvcEvicted out{baseOf(entry, set), entry.dirty, codesOf(entry)};
    frequent_codes_ -= frequentIn(out.codes);
    --valid_entries_;
    entry.valid = false;
    entry.dirty = false;
    return out;
}

bool
FrequentValueCache::tagMatch(Addr addr) const
{
    return findEntry(addr) != nullptr;
}

FrequentValueCache::ProbeOutcome
FrequentValueCache::probeRead(Addr addr, Word &value)
{
    Entry *e = findEntry(addr);
    if (!e)
        return ProbeOutcome::NoTag;
    e->stamp = ++clock_;
    auto decoded = encoding_.decode(codesOf(*e)[wordOffset(addr)]);
    if (!decoded)
        return ProbeOutcome::NonFrequent;
    value = *decoded;
    return ProbeOutcome::Hit;
}

FrequentValueCache::ProbeOutcome
FrequentValueCache::probeWrite(Addr addr, Word value)
{
    Entry *e = findEntry(addr);
    if (!e)
        return ProbeOutcome::NoTag;
    Code code = encoding_.encode(value);
    if (code == encoding_.nonFrequentCode())
        return ProbeOutcome::NonFrequent;
    Code &held = codesOf(*e)[wordOffset(addr)];
    frequent_codes_ += held == encoding_.nonFrequentCode();
    held = code;
    e->dirty = true;
    e->stamp = ++clock_;
    return ProbeOutcome::Hit;
}

std::optional<Word>
FrequentValueCache::readWord(Addr addr)
{
    Word value = 0;
    if (probeRead(addr, value) != ProbeOutcome::Hit)
        return std::nullopt;
    return value;
}

bool
FrequentValueCache::writeWord(Addr addr, Word value)
{
    return probeWrite(addr, value) == ProbeOutcome::Hit;
}

std::optional<FvcEvicted>
FrequentValueCache::insertLine(Addr base, std::span<const Code> codes,
                               bool dirty)
{
    fvc_assert(codes.size() == words_per_line_,
               "insertLine arity mismatch");
    fvc_assert(findEntry(base) == nullptr,
               "insertLine over resident entry");
    Claim claimed = claim(base, dirty);
    for (uint32_t w = 0; w < words_per_line_; ++w) {
        fvc_assert(codes[w] <= encoding_.nonFrequentCode(),
                   "code too wide");
        claimed.codes[w] = codes[w];
        frequent_codes_ += codes[w] != encoding_.nonFrequentCode();
    }
    return claimed.evicted;
}

std::optional<FvcEvicted>
FrequentValueCache::writeAllocate(Addr addr, Word value)
{
    Code code = encoding_.encode(value);
    fvc_assert(code != encoding_.nonFrequentCode(),
               "writeAllocate requires a frequent value");
    fvc_assert(findEntry(addr) == nullptr,
               "writeAllocate over resident entry");
    Claim claimed = claim(addr, true);
    std::fill(claimed.codes.begin(), claimed.codes.end(),
              encoding_.nonFrequentCode());
    claimed.codes[wordOffset(addr)] = code;
    ++frequent_codes_;
    return claimed.evicted;
}

std::optional<FvcEvicted>
FrequentValueCache::invalidate(Addr addr)
{
    Entry *e = findEntry(addr);
    if (!e)
        return std::nullopt;
    return retire(*e, setIndex(addr));
}

std::vector<FvcEvicted>
FrequentValueCache::flush()
{
    std::vector<FvcEvicted> out;
    for (uint32_t set = 0; set < config_.sets(); ++set) {
        for (uint32_t way = 0; way < config_.assoc; ++way) {
            Entry &e =
                entries_[static_cast<size_t>(set) * config_.assoc +
                         way];
            if (e.valid)
                out.push_back(retire(e, set));
        }
    }
    return out;
}

void
FrequentValueCache::rekey(FrequentValueEncoding encoding)
{
    fvc_assert(encoding.codeBits() == config_.code_bits,
               "rekey must keep the code width");
    fvc_assert(validLines() == 0,
               "rekey requires a flushed FVC");
    encoding_ = std::move(encoding);
}

double
FrequentValueCache::frequentCodeFraction() const
{
    uint64_t slots =
        static_cast<uint64_t>(valid_entries_) * words_per_line_;
    if (slots == 0)
        return 0.0;
    return static_cast<double>(frequent_codes_) /
           static_cast<double>(slots);
}

} // namespace fvc::core
