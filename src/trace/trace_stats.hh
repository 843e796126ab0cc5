/**
 * @file
 * Summary statistics over a trace stream.
 */

#ifndef FVC_TRACE_TRACE_STATS_HH_
#define FVC_TRACE_TRACE_STATS_HH_

#include <cstdint>
#include <unordered_set>

#include "trace/record.hh"

namespace fvc::trace {

/**
 * Accumulates basic counts from a trace: loads, stores, unique
 * addresses, footprint, instruction span.
 */
class TraceStats
{
  public:
    /** Account for one record. */
    void observe(const MemRecord &rec);

    uint64_t loads() const { return loads_; }
    uint64_t stores() const { return stores_; }
    uint64_t accesses() const { return loads_ + stores_; }
    uint64_t allocs() const { return allocs_; }
    uint64_t frees() const { return frees_; }

    /** Number of distinct word addresses referenced. */
    uint64_t uniqueWords() const { return words_.size(); }

    /** Referenced footprint in bytes. */
    uint64_t footprintBytes() const
    {
        return words_.size() * kWordBytes;
    }

    uint64_t lastIcount() const { return last_icount_; }

    /** Accesses per 1000 instructions over the trace span. */
    double accessesPerKiloInstruction() const;

  private:
    uint64_t loads_ = 0;
    uint64_t stores_ = 0;
    uint64_t allocs_ = 0;
    uint64_t frees_ = 0;
    uint64_t first_icount_ = 0;
    uint64_t last_icount_ = 0;
    bool seen_any_ = false;
    std::unordered_set<uint64_t> words_;
};

} // namespace fvc::trace

#endif // FVC_TRACE_TRACE_STATS_HH_
