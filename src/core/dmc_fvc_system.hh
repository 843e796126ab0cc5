/**
 * @file
 * DmcFvcSystem: a main cache augmented with a Frequent Value Cache,
 * implementing the transfer protocol of the paper's Section 3 (see
 * DESIGN.md section 4 for the rule-by-rule summary).
 *
 * Invariants maintained:
 *  - a line address is never resident in both the main cache and
 *    the FVC (checked in debug builds on every access);
 *  - the FVC's frequent-coded words always hold the newest value of
 *    those words;
 *  - flush() leaves the memory image identical to a functional
 *    execution of the trace.
 */

#ifndef FVC_CORE_DMC_FVC_SYSTEM_HH_
#define FVC_CORE_DMC_FVC_SYSTEM_HH_

#include <memory>

#include "cache/cache_system.hh"
#include "core/fvc_cache.hh"

namespace fvc::core {

/** Extra statistics specific to the FVC. */
struct FvcStats
{
    /** Hits served by the FVC (read + write). */
    uint64_t fvc_read_hits = 0;
    uint64_t fvc_write_hits = 0;
    /** FVC tag matched but the word/value was non-frequent. */
    uint64_t partial_misses = 0;
    /** Write misses absorbed by frequent-value write allocation. */
    uint64_t write_allocations = 0;
    /** Lines moved from the main cache into the FVC on eviction. */
    uint64_t insertions = 0;
    /** Evicted main-cache lines skipped (no frequent content). */
    uint64_t insertions_skipped = 0;
    /** Dirty FVC evictions written back. */
    uint64_t fvc_writebacks = 0;
    /** Periodic samples of FVC occupancy (Figure 11). */
    double occupancy_sum = 0.0;
    uint64_t occupancy_samples = 0;

    double
    averageFrequentContent() const
    {
        return occupancy_samples == 0
            ? 0.0
            : occupancy_sum / static_cast<double>(occupancy_samples);
    }
};

/** Policy switches (paper defaults; ablations flip them). */
struct DmcFvcPolicy
{
    /**
     * Insert evicted main-cache lines into the FVC only when they
     * contain at least one frequent value. Inserting barren lines
     * would only displace useful entries.
     */
    bool skip_barren_insertions = true;
    /**
     * Allocate an FVC entry on a write miss with a frequent value
     * (the paper's "second situation"; eliminates/delays misses).
     */
    bool write_allocate_frequent = true;
    /** Sample FVC occupancy every this many accesses (0 = never). */
    uint64_t occupancy_sample_interval = 4096;
};

/** The combined DMC + FVC organization. */
class DmcFvcSystem final : public cache::CacheSystem
{
  public:
    DmcFvcSystem(const cache::CacheConfig &dmc_config,
                 const FvcConfig &fvc_config,
                 FrequentValueEncoding encoding,
                 DmcFvcPolicy policy = {});

    cache::AccessResult access(const trace::MemRecord &rec) override;
    void flush() override;
    const cache::CacheStats &stats() const override;
    std::string describe() const override;
    memmodel::FunctionalMemory &memoryImage() override
    {
        return memory_;
    }

    const FvcStats &fvcStats() const { return fvc_stats_; }
    cache::SetAssocCache &dmc() { return dmc_; }
    FrequentValueCache &fvc() { return fvc_; }
    const FrequentValueCache &fvc() const { return fvc_; }

    /**
     * Swap in a new frequent value set (online training): dirty
     * FVC entries are written back, the FVC emptied, and future
     * accesses use the new encoding. The main cache is untouched.
     */
    void retrain(const std::vector<Word> &values);

    /** Exclusivity invariant for @p addr (tests call this). */
    bool exclusive(Addr addr) const;

  private:
    cache::SetAssocCache dmc_;
    FrequentValueCache fvc_;
    memmodel::FunctionalMemory memory_;
    cache::CacheStats stats_;
    FvcStats fvc_stats_;
    DmcFvcPolicy policy_;
    uint64_t access_count_ = 0;
    /** Accesses until the next occupancy sample (0 = disabled);
     * avoids a per-access modulo. */
    uint64_t sample_countdown_ = 0;
    /** The line a miss fetches, assembled before it enters the DMC. */
    std::vector<Word> fetched_;
    /** An evicted DMC line's codes, encoded once for the FVC. */
    std::vector<Code> evicted_codes_;

    /** Write a dirty FVC entry's frequent words back to memory. */
    void writebackFvcEntry(const FvcEvicted &entry);
    /** Write a dirty main-cache line back to memory. */
    void writebackDmcLine(const cache::EvictedLine &line);
    /** Handle a main-cache eviction (writeback + FVC insertion). */
    void handleDmcEviction(const cache::EvictedLine &line);
    /**
     * Fetch @p addr's line from memory, overlay any newer FVC
     * values, install it into the main cache.
     */
    void fetchInstall(Addr addr);
    void sampleOccupancy();
};

} // namespace fvc::core

#endif // FVC_CORE_DMC_FVC_SYSTEM_HH_
