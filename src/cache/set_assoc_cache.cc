#include "cache/set_assoc_cache.hh"

#include <algorithm>

#include "util/logging.hh"

namespace fvc::cache {

SetAssocCache::SetAssocCache(const CacheConfig &config, uint64_t seed)
    : config_(config), rng_(seed)
{
    config_.validate();
    words_per_line_ = config_.wordsPerLine();
    lines_.resize(config_.lines());
    words_.assign(static_cast<size_t>(config_.lines()) *
                      words_per_line_,
                  0);
    victim_words_.assign(words_per_line_, 0);
    offset_bits_ = config_.offsetBits();
    tag_shift_ = offset_bits_ + config_.indexBits();
    set_mask_ = config_.sets() - 1;
}

CacheLine &
SetAssocCache::lineAt(uint32_t set, uint32_t way)
{
    return lines_[static_cast<size_t>(set) * config_.assoc + way];
}

Addr
SetAssocCache::reconstructBase(const CacheLine &line,
                               uint32_t set) const
{
    return static_cast<Addr>(
        (line.tag << (config_.offsetBits() + config_.indexBits())) |
        (static_cast<uint64_t>(set) << config_.offsetBits()));
}

CacheLine *
SetAssocCache::probe(Addr addr)
{
    uint32_t set = (addr >> offset_bits_) & set_mask_;
    uint64_t tag = addr >> tag_shift_;
    CacheLine *line = &lines_[static_cast<size_t>(set) *
                              config_.assoc];
    for (uint32_t way = 0; way < config_.assoc; ++way, ++line) {
        if (line->valid && line->tag == tag)
            return line;
    }
    return nullptr;
}

const CacheLine *
SetAssocCache::probe(Addr addr) const
{
    return const_cast<SetAssocCache *>(this)->probe(addr);
}

CacheLine *
SetAssocCache::probeTouch(Addr addr)
{
    CacheLine *line = probe(addr);
    if (line && config_.replacement == Replacement::LRU)
        line->stamp = ++clock_;
    return line;
}

uint32_t
SetAssocCache::victimWay(uint32_t set)
{
    // Prefer an invalid way.
    for (uint32_t way = 0; way < config_.assoc; ++way) {
        if (!lineAt(set, way).valid)
            return way;
    }
    switch (config_.replacement) {
      case Replacement::Random:
        return static_cast<uint32_t>(rng_.below(config_.assoc));
      case Replacement::LRU:
      case Replacement::FIFO: {
        uint32_t best = 0;
        for (uint32_t way = 1; way < config_.assoc; ++way) {
            if (lineAt(set, way).stamp < lineAt(set, best).stamp)
                best = way;
        }
        return best;
      }
    }
    fvc_panic("unreachable replacement policy");
}

SetAssocCache::Claim
SetAssocCache::claim(Addr addr, bool dirty)
{
    fvc_assert(probe(addr) == nullptr,
               "fill of already-resident line");
    uint32_t set = config_.setIndex(addr);
    CacheLine &line = lineAt(set, victimWay(set));

    Claim out{line, std::nullopt};
    if (line.valid) {
        // The way's words are about to be overwritten: save them.
        std::span<const Word> old = words(line);
        std::copy(old.begin(), old.end(), victim_words_.begin());
        out.victim = EvictedLine{reconstructBase(line, set),
                                 line.dirty, victim_words_};
    }
    line.tag = config_.tag(addr);
    line.valid = true;
    line.dirty = dirty;
    line.stamp = ++clock_;
    return out;
}

std::optional<EvictedLine>
SetAssocCache::fill(Addr addr, std::span<const Word> data, bool dirty)
{
    fvc_assert(data.size() == words_per_line_,
               "fill data arity mismatch");
    Claim claimed = claim(addr, dirty);
    std::copy(data.begin(), data.end(), words(claimed.line).begin());
    return claimed.victim;
}

std::optional<EvictedLine>
SetAssocCache::invalidate(Addr addr)
{
    CacheLine *line = probe(addr);
    if (!line)
        return std::nullopt;
    EvictedLine out{config_.lineBase(addr), line->dirty,
                    words(*line)};
    line->valid = false;
    line->dirty = false;
    return out;
}

std::vector<EvictedLine>
SetAssocCache::flush()
{
    std::vector<EvictedLine> out;
    for (uint32_t set = 0; set < config_.sets(); ++set) {
        for (uint32_t way = 0; way < config_.assoc; ++way) {
            CacheLine &line = lineAt(set, way);
            if (!line.valid)
                continue;
            out.push_back({reconstructBase(line, set), line.dirty,
                           words(line)});
            line.valid = false;
            line.dirty = false;
        }
    }
    return out;
}

Word
SetAssocCache::readWord(Addr addr)
{
    CacheLine *line = probe(addr);
    fvc_assert(line, "readWord on non-resident line");
    return words(*line)[config_.wordOffset(addr)];
}

void
SetAssocCache::writeWord(Addr addr, Word value)
{
    CacheLine *line = probe(addr);
    fvc_assert(line, "writeWord on non-resident line");
    words(*line)[config_.wordOffset(addr)] = value;
    line->dirty = true;
}

uint32_t
SetAssocCache::validLines() const
{
    uint32_t n = 0;
    for (const auto &line : lines_) {
        if (line.valid)
            ++n;
    }
    return n;
}

bool
SetAssocCache::access(trace::Op op, Addr addr, Word value,
                      memmodel::FunctionalMemory &memory,
                      Word *loaded)
{
    fvc_assert(op == trace::Op::Load || op == trace::Op::Store,
               "access requires a load or store");
    const bool write_through =
        config_.write_policy == WritePolicy::WriteThrough;

    CacheLine *line = probeTouch(addr);
    if (line) {
        Word &word = words(*line)[config_.wordOffset(addr)];
        if (op == trace::Op::Load) {
            ++stats_.read_hits;
            if (loaded)
                *loaded = word;
        } else {
            ++stats_.write_hits;
            word = value;
            if (write_through) {
                // The store goes straight through to memory; the
                // cached copy stays clean.
                memory.write(addr, value);
                stats_.writeback_bytes += trace::kWordBytes;
            } else {
                line->dirty = true;
            }
        }
        return true;
    }

    if (op == trace::Op::Store && write_through) {
        // Write-around: update memory without allocating a line.
        ++stats_.write_misses;
        memory.write(addr, value);
        stats_.writeback_bytes += trace::kWordBytes;
        return false;
    }
    if (op == trace::Op::Load && loaded) {
        // The fill below installs memory's (current) copy of the
        // line, so the load observes the memory value.
        *loaded = memory.read(addr);
    }

    // Miss: fetch the whole line from memory (write-allocate).
    if (op == trace::Op::Load)
        ++stats_.read_misses;
    else
        ++stats_.write_misses;

    // The line comes straight from memory into its way; the
    // displaced line is saved first, then written back.
    Claim claimed = claim(addr, false);
    std::span<Word> line_words = words(claimed.line);
    Addr base = config_.lineBase(addr);
    for (uint32_t w = 0; w < words_per_line_; ++w)
        line_words[w] = memory.read(base + w * trace::kWordBytes);
    ++stats_.fills;
    stats_.fetch_bytes += config_.line_bytes;

    if (claimed.victim && claimed.victim->dirty) {
        const EvictedLine &victim = *claimed.victim;
        ++stats_.writebacks;
        stats_.writeback_bytes += config_.line_bytes;
        for (uint32_t w = 0; w < words_per_line_; ++w) {
            memory.write(victim.base + w * trace::kWordBytes,
                         victim.data[w]);
        }
    }

    if (op == trace::Op::Store) {
        line_words[config_.wordOffset(addr)] = value;
        claimed.line.dirty = true;
    }
    return false;
}

} // namespace fvc::cache
