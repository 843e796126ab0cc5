/**
 * @file
 * CacheSystem: the interface every simulated cache organization
 * implements, plus the plain direct-mapped/set-associative system.
 *
 * A system owns its backing memory image, consumes trace records,
 * and accounts hits, misses, and off-chip traffic. flush() drains
 * dirty state so the memory image can be compared against the
 * workload generator's ground truth.
 */

#ifndef FVC_CACHE_CACHE_SYSTEM_HH_
#define FVC_CACHE_CACHE_SYSTEM_HH_

#include <memory>
#include <string>

#include "cache/set_assoc_cache.hh"
#include "cache/stats.hh"
#include "trace/record.hh"

namespace fvc::cache {

/** Where an access was satisfied. */
enum class HitWhere {
    MainCache,
    AuxCache, // FVC or victim cache
    Miss,
};

/** Outcome of one access. */
struct AccessResult
{
    HitWhere where = HitWhere::Miss;
    /** Value observed by a load (undefined for stores). */
    Word loaded = 0;

    bool isHit() const { return where != HitWhere::Miss; }
};

/** A simulated cache organization. */
class CacheSystem
{
  public:
    virtual ~CacheSystem() = default;

    /** Process one load/store; Alloc/Free records are ignored. */
    virtual AccessResult access(const trace::MemRecord &rec) = 0;

    /** Write all dirty state back to the memory image. */
    virtual void flush() = 0;

    /** Aggregate statistics. */
    virtual const CacheStats &stats() const = 0;

    /** Human-readable configuration summary. */
    virtual std::string describe() const = 0;

    /** The backing memory image (post-flush ground truth). */
    virtual memmodel::FunctionalMemory &memoryImage() = 0;
};

/** A bare DMC (or set-associative cache) with no helper structure. */
class DmcSystem final : public CacheSystem
{
  public:
    explicit DmcSystem(const CacheConfig &config);

    AccessResult access(const trace::MemRecord &rec) override;
    void flush() override;
    const CacheStats &stats() const override;
    std::string describe() const override;
    memmodel::FunctionalMemory &memoryImage() override
    {
        return memory_;
    }

    SetAssocCache &cache() { return cache_; }

  private:
    SetAssocCache cache_;
    memmodel::FunctionalMemory memory_;
};

} // namespace fvc::cache

#endif // FVC_CACHE_CACHE_SYSTEM_HH_
