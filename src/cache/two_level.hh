/**
 * @file
 * TwoLevelSystem: an L1 + L2 write-back hierarchy.
 *
 * The paper evaluates a single on-chip DMC against memory; systems
 * of its era increasingly paired that DMC with a unified L2. This
 * substrate answers the natural follow-up — how much of the FVC's
 * benefit survives when an L2 already absorbs capacity misses? —
 * in bench/ext_two_level, and doubles as a general L1/L2 model.
 *
 * Organization: both levels are write-back, write-allocate; the
 * hierarchy is mostly-inclusive (L2 keeps a copy of lines promoted
 * to L1; dirty L1 victims update/allocate their L2 line). Off-chip
 * traffic is what crosses the L2/memory boundary.
 */

#ifndef FVC_CACHE_TWO_LEVEL_HH_
#define FVC_CACHE_TWO_LEVEL_HH_

#include <span>
#include <vector>

#include "cache/cache_system.hh"

namespace fvc::cache {

/** The combined L1 + L2 organization. */
class TwoLevelSystem final : public CacheSystem
{
  public:
    /**
     * @param l1_config L1 geometry (line size must divide L2's)
     * @param l2_config L2 geometry (same line size required, to
     *                  keep the model simple and the comparison to
     *                  single-level systems direct)
     */
    TwoLevelSystem(const CacheConfig &l1_config,
                   const CacheConfig &l2_config);

    AccessResult access(const trace::MemRecord &rec) override;
    void flush() override;
    const CacheStats &stats() const override { return stats_; }
    std::string describe() const override;
    memmodel::FunctionalMemory &memoryImage() override
    {
        return memory_;
    }

    /** L2-side counters (hits among L1 misses, memory traffic). */
    const CacheStats &l2Stats() const { return l2_stats_; }
    SetAssocCache &l1() { return l1_; }
    SetAssocCache &l2() { return l2_; }

  private:
    SetAssocCache l1_;
    SetAssocCache l2_;
    memmodel::FunctionalMemory memory_;
    /** L1-centric stats; fetch/writeback = off-chip traffic. */
    CacheStats stats_;
    CacheStats l2_stats_;
    /** The line an L2 miss fetches from memory. */
    std::vector<Word> fetched_;

    /** Get the line for @p addr into L2 (from memory if needed);
     * returns its words, valid until the next L2 fill. */
    std::span<const Word> lineViaL2(Addr addr, bool count_l2);
    /** Handle an L1 victim: merge into L2. */
    void handleL1Eviction(const EvictedLine &line);
    /** Handle an L2 victim: write back to memory if dirty. */
    void handleL2Eviction(const EvictedLine &line);
};

} // namespace fvc::cache

#endif // FVC_CACHE_TWO_LEVEL_HH_
