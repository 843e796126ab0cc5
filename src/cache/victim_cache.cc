#include "cache/victim_cache.hh"

#include <algorithm>

#include "util/logging.hh"
#include "util/strings.hh"

namespace fvc::cache {

VictimCache::VictimCache(uint32_t entries, uint32_t line_bytes)
    : entries_(entries), line_bytes_(line_bytes),
      words_per_line_(line_bytes / trace::kWordBytes)
{
    fvc_assert(entries > 0, "victim cache needs entries");
    fvc_assert(line_bytes >= trace::kWordBytes,
               "bad victim line size");
    slots_.resize(entries);
    words_.assign(static_cast<size_t>(entries) * words_per_line_, 0);
    overflow_words_.assign(words_per_line_, 0);
}

std::optional<EvictedLine>
VictimCache::extract(Addr line_base)
{
    for (size_t i = 0; i < slots_.size(); ++i) {
        Entry &e = slots_[i];
        if (e.valid && e.base == line_base) {
            e.valid = false;
            --valid_;
            return EvictedLine{e.base, e.dirty, wordsOf(i)};
        }
    }
    return std::nullopt;
}

bool
VictimCache::contains(Addr line_base) const
{
    for (const Entry &e : slots_) {
        if (e.valid && e.base == line_base)
            return true;
    }
    return false;
}

std::optional<EvictedLine>
VictimCache::insert(const EvictedLine &line)
{
    fvc_assert(!contains(line.base),
               "duplicate insert into victim cache");
    fvc_assert(line.data.size() == words_per_line_,
               "victim line arity mismatch");
    // A free entry if there is one, else the least recently
    // inserted line makes room.
    size_t slot = 0;
    for (size_t i = 0; i < slots_.size(); ++i) {
        if (!slots_[i].valid) {
            slot = i;
            break;
        }
        if (slots_[i].stamp < slots_[slot].stamp)
            slot = i;
    }
    Entry &e = slots_[slot];
    std::span<Word> words = wordsOf(slot);

    std::optional<EvictedLine> out;
    if (e.valid) {
        std::copy(words.begin(), words.end(), overflow_words_.begin());
        out = EvictedLine{e.base, e.dirty, overflow_words_};
    } else {
        ++valid_;
    }
    e = Entry{line.base, true, line.dirty, ++clock_};
    std::copy(line.data.begin(), line.data.end(), words.begin());
    return out;
}

std::vector<EvictedLine>
VictimCache::flush()
{
    std::vector<EvictedLine> out;
    for (size_t i = 0; i < slots_.size(); ++i) {
        Entry &e = slots_[i];
        if (!e.valid)
            continue;
        out.push_back({e.base, e.dirty, wordsOf(i)});
        e.valid = false;
    }
    valid_ = 0;
    return out;
}

uint64_t
VictimCache::storageBits() const
{
    // Full tag (address minus offset bits), valid + dirty bits, and
    // the data words.
    unsigned offset_bits = util::floorLog2(line_bytes_);
    uint64_t tag_bits = 32 - offset_bits;
    uint64_t per_line = tag_bits + 2 + 8ull * line_bytes_;
    return per_line * entries_;
}

DmcVictimSystem::DmcVictimSystem(const CacheConfig &dmc_config,
                                 uint32_t victim_entries)
    : dmc_(dmc_config),
      victim_(victim_entries, dmc_config.line_bytes),
      fetched_(dmc_config.wordsPerLine())
{
}

void
DmcVictimSystem::writebackLine(const EvictedLine &line)
{
    if (!line.dirty)
        return;
    ++stats_.writebacks;
    stats_.writeback_bytes += dmc_.config().line_bytes;
    for (uint32_t w = 0; w < dmc_.config().wordsPerLine(); ++w) {
        memory_.write(line.base + w * trace::kWordBytes,
                      line.data[w]);
    }
}

void
DmcVictimSystem::installLine(Addr addr, std::span<const Word> data,
                             bool dirty)
{
    auto displaced = dmc_.fill(addr, data, dirty);
    if (!displaced)
        return;
    // The displaced DMC line moves into the victim buffer; the
    // buffer's own casualty goes to memory.
    auto overflow = victim_.insert(*displaced);
    if (overflow)
        writebackLine(*overflow);
}

AccessResult
DmcVictimSystem::access(const trace::MemRecord &rec)
{
    fvc_assert(rec.isAccess(), "access requires load/store");
    AccessResult result;
    Addr addr = rec.addr;

    const uint32_t off = dmc_.config().wordOffset(addr);
    if (CacheLine *line = dmc_.probeTouch(addr)) {
        if (rec.isLoad()) {
            ++stats_.read_hits;
            result.loaded = dmc_.words(*line)[off];
        } else {
            ++stats_.write_hits;
            dmc_.words(*line)[off] = rec.value;
            line->dirty = true;
        }
        result.where = HitWhere::MainCache;
        return result;
    }

    Addr base = dmc_.config().lineBase(addr);
    if (auto saved = victim_.extract(base)) {
        // Victim hit: swap the saved line back into the DMC.
        ++victim_hits_;
        if (rec.isLoad())
            ++stats_.read_hits;
        else
            ++stats_.write_hits;
        installLine(addr, saved->data, saved->dirty);
        CacheLine *line = dmc_.probe(addr);
        if (rec.isLoad()) {
            result.loaded = dmc_.words(*line)[off];
        } else {
            dmc_.words(*line)[off] = rec.value;
            line->dirty = true;
        }
        result.where = HitWhere::AuxCache;
        return result;
    }

    // Full miss: fetch from memory.
    if (rec.isLoad())
        ++stats_.read_misses;
    else
        ++stats_.write_misses;
    ++stats_.fills;
    stats_.fetch_bytes += dmc_.config().line_bytes;

    for (uint32_t w = 0; w < fetched_.size(); ++w)
        fetched_[w] = memory_.read(base + w * trace::kWordBytes);
    installLine(addr, fetched_, false);

    CacheLine *line = dmc_.probe(addr);
    if (rec.isLoad()) {
        result.loaded = dmc_.words(*line)[off];
    } else {
        dmc_.words(*line)[off] = rec.value;
        line->dirty = true;
    }
    result.where = HitWhere::Miss;
    return result;
}

void
DmcVictimSystem::flush()
{
    for (const auto &line : dmc_.flush())
        writebackLine(line);
    for (const auto &line : victim_.flush())
        writebackLine(line);
}

const CacheStats &
DmcVictimSystem::stats() const
{
    return stats_;
}

std::string
DmcVictimSystem::describe() const
{
    return "DMC " + dmc_.config().describe() + " + VC " +
           std::to_string(victim_.entries()) + " entries";
}

} // namespace fvc::cache
