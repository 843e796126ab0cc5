/**
 * @file
 * A data-carrying, write-back, write-allocate set-associative cache.
 *
 * Unlike address-only simulators, lines hold the actual word values;
 * the FVC protocol needs them (an evicted line's frequent values are
 * inserted into the FVC) and they let the tests verify end-to-end
 * data integrity against the functional memory.
 */

#ifndef FVC_CACHE_SET_ASSOC_CACHE_HH_
#define FVC_CACHE_SET_ASSOC_CACHE_HH_

#include <optional>
#include <span>
#include <vector>

#include "cache/config.hh"
#include "cache/stats.hh"
#include "memmodel/functional_memory.hh"
#include "util/random.hh"

namespace fvc::cache {

/** A cache line's state; its words live in the cache's word array
 * (SetAssocCache::words). */
struct CacheLine
{
    uint64_t tag = 0;
    bool valid = false;
    bool dirty = false;
    /** Monotonic stamp for LRU/FIFO ordering. */
    uint64_t stamp = 0;
};

/**
 * A line evicted from a cache, with its reconstructed address. The
 * words view storage the evicting structure owns; they stay valid
 * until that structure's next fill or insert.
 */
struct EvictedLine
{
    Addr base;
    bool dirty;
    std::span<const Word> data;
};

/**
 * The cache array. The DMC of the paper is this with assoc = 1.
 *
 * The cache is a slave of a CacheSystem: it does not itself talk to
 * memory. probe/fill/evict primitives let systems compose it with
 * victim caches and FVCs; access() is a convenience for standalone
 * use against a backing FunctionalMemory.
 *
 * Every line's words sit in one flat array (line i at
 * i * wordsPerLine()), and a displaced line's words are saved in a
 * buffer the cache keeps, so no access allocates.
 */
class SetAssocCache
{
  public:
    explicit SetAssocCache(const CacheConfig &config,
                           uint64_t seed = 12345);

    const CacheConfig &config() const { return config_; }

    /** Look up @p addr; returns the line or nullptr. No stats. */
    CacheLine *probe(Addr addr);
    const CacheLine *probe(Addr addr) const;

    /** probe() + LRU touch. */
    CacheLine *probeTouch(Addr addr);

    /** The words of @p line, which must be a line of this cache. */
    std::span<Word> words(const CacheLine &line)
    {
        size_t i = static_cast<size_t>(&line - lines_.data());
        return {words_.data() + i * words_per_line_, words_per_line_};
    }

    /**
     * Install a line for @p addr with the given words.
     *
     * @param addr any address within the line
     * @param data wordsPerLine() values (copied)
     * @param dirty initial dirty state
     * @return the victim line if a valid line was displaced; its
     *         words are valid until the next fill
     */
    std::optional<EvictedLine> fill(Addr addr,
                                    std::span<const Word> data,
                                    bool dirty);

    /** Invalidate the line containing @p addr if present.
     * @return the line's contents (for writeback decisions); the
     *         words are valid until the next fill */
    std::optional<EvictedLine> invalidate(Addr addr);

    /** Invalidate everything, returning the lines that were valid
     * (their words are valid until the next fill). */
    std::vector<EvictedLine> flush();

    /** Read the word at @p addr; line must be resident. */
    Word readWord(Addr addr);

    /** Write the word at @p addr; line must be resident. */
    void writeWord(Addr addr, Word value);

    /** Number of valid lines (for occupancy studies). */
    uint32_t validLines() const;

    /**
     * Standalone access against a backing memory: hit => serve from
     * the array, miss => write back victim and fetch the line.
     * Updates stats().
     *
     * @param loaded if non-null, receives the value a load observed
     *               (saves the caller a second probe)
     * @retval true hit, false miss
     */
    bool access(trace::Op op, Addr addr, Word value,
                memmodel::FunctionalMemory &memory,
                Word *loaded = nullptr);

    CacheStats &stats() { return stats_; }
    const CacheStats &stats() const { return stats_; }

  private:
    CacheConfig config_;
    std::vector<CacheLine> lines_;
    /** Every line's words: line i at i * words_per_line_. */
    std::vector<Word> words_;
    /** The last displaced line's words, saved before its way is
     * reused. */
    std::vector<Word> victim_words_;
    uint32_t words_per_line_ = 0;
    uint64_t clock_ = 0;
    util::Rng rng_;
    CacheStats stats_;
    /** Geometry precomputed from config_ (probe is the hot path). */
    unsigned offset_bits_ = 0;
    unsigned tag_shift_ = 0;
    uint32_t set_mask_ = 0;

    CacheLine &lineAt(uint32_t set, uint32_t way);
    uint32_t victimWay(uint32_t set);
    Addr reconstructBase(const CacheLine &line, uint32_t set) const;

    /** A way claimed for a new line: the caller writes its words. */
    struct Claim
    {
        CacheLine &line;
        /** The valid line the way held, if any. */
        std::optional<EvictedLine> victim;
    };
    /** Pick the way for @p addr's (non-resident) line, save the line
     * it displaces in victim_words_, and install the new tag. */
    Claim claim(Addr addr, bool dirty);

    friend class CacheInspector;
};

/** Test-only deep inspector (keeps the main API clean). */
class CacheInspector
{
  public:
    explicit CacheInspector(SetAssocCache &cache) : cache_(cache) {}

    const CacheLine &line(uint32_t set, uint32_t way) const
    {
        return cache_.lineAt(set, way);
    }

    Addr
    lineBase(uint32_t set, uint32_t way) const
    {
        return cache_.reconstructBase(cache_.lineAt(set, way), set);
    }

  private:
    SetAssocCache &cache_;
};

} // namespace fvc::cache

#endif // FVC_CACHE_SET_ASSOC_CACHE_HH_
