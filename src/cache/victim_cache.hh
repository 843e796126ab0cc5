/**
 * @file
 * Victim cache (Jouppi 1990): the baseline the paper compares the
 * FVC against in Figure 15. A small fully-associative buffer holds
 * lines evicted from the DMC; a DMC miss that hits in the victim
 * cache swaps the two lines.
 */

#ifndef FVC_CACHE_VICTIM_CACHE_HH_
#define FVC_CACHE_VICTIM_CACHE_HH_

#include <optional>
#include <span>
#include <vector>

#include "cache/cache_system.hh"
#include "cache/config.hh"
#include "cache/stats.hh"

namespace fvc::cache {

/**
 * Fully-associative LRU buffer of evicted lines: a fixed array of
 * entries whose words sit in one flat array, like SetAssocCache's.
 * Returned lines view that storage; they stay valid until the next
 * insert.
 */
class VictimCache
{
  public:
    /**
     * @param entries number of lines held
     * @param line_bytes line size (must match the main cache)
     */
    VictimCache(uint32_t entries, uint32_t line_bytes);

    /** Look up a line; returns and removes it on hit. */
    std::optional<EvictedLine> extract(Addr line_base);

    /** True iff the line is present (no LRU update). */
    bool contains(Addr line_base) const;

    /** Insert a copy of a line; if the buffer was full, returns the
     * least recently inserted line, which it displaced. */
    std::optional<EvictedLine> insert(const EvictedLine &line);

    /** Remove everything, returning the contents. */
    std::vector<EvictedLine> flush();

    uint32_t entries() const { return entries_; }
    uint32_t validLines() const { return valid_; }

    /** Total storage cost in bits (tags + state + data). */
    uint64_t storageBits() const;

  private:
    struct Entry
    {
        Addr base = 0;
        bool valid = false;
        bool dirty = false;
        /** Insertion stamp: the smallest valid one is the LRU. */
        uint64_t stamp = 0;
    };

    uint32_t entries_;
    uint32_t line_bytes_;
    uint32_t words_per_line_;
    std::vector<Entry> slots_;
    /** Every entry's words: entry i at i * words_per_line_. */
    std::vector<Word> words_;
    /** The last displaced line's words. */
    std::vector<Word> overflow_words_;
    uint32_t valid_ = 0;
    uint64_t clock_ = 0;

    std::span<Word> wordsOf(size_t slot)
    {
        return {words_.data() + slot * words_per_line_,
                words_per_line_};
    }
};

/** A DMC backed by a victim cache (Figure 15's "VC" system). */
class DmcVictimSystem final : public CacheSystem
{
  public:
    DmcVictimSystem(const CacheConfig &dmc_config,
                    uint32_t victim_entries);

    AccessResult access(const trace::MemRecord &rec) override;
    void flush() override;
    const CacheStats &stats() const override;
    std::string describe() const override;
    memmodel::FunctionalMemory &memoryImage() override
    {
        return memory_;
    }

    SetAssocCache &dmc() { return dmc_; }
    VictimCache &victim() { return victim_; }

    /** Hits served by the victim buffer. */
    uint64_t victimHits() const { return victim_hits_; }

  private:
    SetAssocCache dmc_;
    VictimCache victim_;
    memmodel::FunctionalMemory memory_;
    CacheStats stats_;
    uint64_t victim_hits_ = 0;

    /** The line a full miss fetches from memory. */
    std::vector<Word> fetched_;

    void writebackLine(const EvictedLine &line);
    void installLine(Addr addr, std::span<const Word> data,
                     bool dirty);
};

} // namespace fvc::cache

#endif // FVC_CACHE_VICTIM_CACHE_HH_
