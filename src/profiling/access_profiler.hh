/**
 * @file
 * AccessProfiler: frequently *accessed* values, with the stability
 * tracking behind Table 3 and the time series behind Figure 3.
 */

#ifndef FVC_PROFILING_ACCESS_PROFILER_HH_
#define FVC_PROFILING_ACCESS_PROFILER_HH_

#include <vector>

#include "profiling/value_table.hh"
#include "trace/record.hh"

namespace fvc::profiling {

/**
 * Counts the values involved in every load and store, and records
 * when the identity and ordering of the top-k sets last changed.
 *
 * The stability tracking re-ranks the whole value table every
 * kCheckInterval accesses, which costs far more than the counting.
 * Table 3 (tab03_stability) is its one consumer; code that needs
 * only counts or a final top-k uses a ValueCounterTable directly.
 */
class AccessProfiler
{
  public:
    /**
     * @param tracked_ks the k values whose stability to monitor
     *                   (the paper uses 1, 3, and 7)
     */
    explicit AccessProfiler(std::vector<size_t> tracked_ks = {1, 3,
                                                              7});

    /** Account for one record (ignores non-access records). */
    void observe(const trace::MemRecord &rec);

    const ValueCounterTable &table() const { return table_; }

    /** Top-k frequently accessed values right now. */
    std::vector<ValueCount> topK(size_t k) const
    {
        return table_.topK(k);
    }

    /** Just the values of the top-k, in rank order. */
    std::vector<Word> topKValues(size_t k) const;

    /**
     * Instruction count after which the *ordered* top-k list never
     * changed again (Table 3's "order found" metric).
     */
    uint64_t lastOrderChange(size_t k) const;

    /**
     * Instruction count after which the top-k *set* (ignoring
     * order) never changed again.
     */
    uint64_t lastSetChange(size_t k) const;

    uint64_t accesses() const { return accesses_; }
    uint64_t lastIcount() const { return last_icount_; }

  private:
    struct Tracked
    {
        size_t k;
        std::vector<Word> last_order;
        uint64_t order_changed_at = 0;
        uint64_t set_changed_at = 0;
    };

    ValueCounterTable table_;
    std::vector<Tracked> tracked_;
    uint64_t accesses_ = 0;
    uint64_t last_icount_ = 0;
    /** Stability is re-evaluated every this many accesses. */
    static constexpr uint64_t kCheckInterval = 4096;
};

} // namespace fvc::profiling

#endif // FVC_PROFILING_ACCESS_PROFILER_HH_
