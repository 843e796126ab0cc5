/**
 * @file
 * CompressedDataCache: frequent-value compression applied to the
 * data cache itself — the research direction the paper's reference
 * [11] ("Frequent Value Compression in Data Caches", Yang & Zhang &
 * Gupta) opened.
 *
 * Instead of a separate value-centric structure, every line of the
 * cache may be stored *compressed*: frequent words as b-bit codes,
 * the remaining words verbatim. A line whose non-frequent words
 * occupy at most half the line compresses to at most half a
 * physical line, so two compressed lines can share one physical
 * slot — effectively doubling capacity for frequent-valued data.
 *
 * The simulator models this with fractional line costs: an
 * uncompressed logical line costs 1.0 physical way, a compressed
 * one 0.5, and each set's resident cost may not exceed its
 * associativity. A store of a non-frequent value can make a
 * compressed line incompressible, which may force an eviction to
 * restore the capacity invariant ("fat write" in the literature).
 */

#ifndef FVC_CORE_COMPRESSED_CACHE_HH_
#define FVC_CORE_COMPRESSED_CACHE_HH_

#include <list>
#include <vector>

#include "cache/cache_system.hh"
#include "core/encoding.hh"

namespace fvc::core {

using trace::Addr;

/** Geometry of a compressed data cache. */
struct CompressedCacheConfig
{
    /** Physical data capacity in bytes. */
    uint32_t size_bytes = 16 * 1024;
    uint32_t line_bytes = 32;
    /** Physical ways per set. */
    uint32_t assoc = 1;
    /** Code width used for the compressed format. */
    unsigned code_bits = 3;

    uint32_t wordsPerLine() const
    {
        return line_bytes / trace::kWordBytes;
    }
    uint32_t physicalLines() const
    {
        return size_bytes / line_bytes;
    }
    uint32_t sets() const { return physicalLines() / assoc; }

    void validate() const;
};

/** Statistics specific to the compressed cache. */
struct CompressionStats
{
    /** Lines resident compressed / uncompressed (sampled). */
    double compressed_fraction_sum = 0.0;
    uint64_t samples = 0;
    /** Stores that expanded a compressed line. */
    uint64_t fat_writes = 0;
    /** Evictions forced by expansion. */
    uint64_t expansion_evictions = 0;

    double
    averageCompressedFraction() const
    {
        return samples == 0
            ? 0.0
            : compressed_fraction_sum / static_cast<double>(samples);
    }
};

/**
 * A set-associative write-back cache storing lines compressed when
 * the frequent-value encoding allows it.
 */
class CompressedDataCache final : public cache::CacheSystem
{
  public:
    CompressedDataCache(const CompressedCacheConfig &config,
                        FrequentValueEncoding encoding);

    cache::AccessResult access(const trace::MemRecord &rec) override;
    void flush() override;
    const cache::CacheStats &stats() const override
    {
        return stats_;
    }
    std::string describe() const override;
    memmodel::FunctionalMemory &memoryImage() override
    {
        return memory_;
    }

    const CompressionStats &compressionStats() const
    {
        return cstats_;
    }
    const FrequentValueEncoding &encoding() const
    {
        return encoding_;
    }

    /** True iff @p data fits the compressed format. */
    bool compressible(const std::vector<Word> &data) const;

    /** Logical lines currently resident. */
    uint32_t residentLines() const;

  private:
    struct Logical
    {
        uint64_t tag = 0;
        bool dirty = false;
        bool compressed = false;
        std::vector<Word> data;
    };

    /** One set: logical lines in LRU order (front = MRU). */
    struct Set
    {
        std::list<Logical> lines;
    };

    CompressedCacheConfig config_;
    FrequentValueEncoding encoding_;
    std::vector<Set> sets_;
    memmodel::FunctionalMemory memory_;
    cache::CacheStats stats_;
    CompressionStats cstats_;
    uint64_t access_count_ = 0;

    uint32_t setIndex(Addr addr) const;
    uint64_t tagOf(Addr addr) const;
    Addr baseOf(uint64_t tag, uint32_t set) const;

    /** Cost of one logical line in physical ways. */
    static double cost(const Logical &line)
    {
        return line.compressed ? 0.5 : 1.0;
    }
    double setCost(const Set &set) const;

    Logical *find(uint32_t set, uint64_t tag, bool touch);
    /** Evict LRU lines until the set fits @p extra more cost. */
    void makeRoom(uint32_t set, double extra);
    void writeback(const Logical &line, uint32_t set);
    void fill(Addr addr);
    void sampleOccupancy();
};

} // namespace fvc::core

#endif // FVC_CORE_COMPRESSED_CACHE_HH_
