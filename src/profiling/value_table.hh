/**
 * @file
 * Value frequency counting: an exact table and an online bounded
 * sketch (Space-Saving) for the "fast method for identifying the
 * frequently accessed values" the paper calls for in Section 2.
 */

#ifndef FVC_PROFILING_VALUE_TABLE_HH_
#define FVC_PROFILING_VALUE_TABLE_HH_

#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "trace/record.hh"

namespace fvc::profiling {

using trace::Word;

/** A value with its observed count. */
struct ValueCount
{
    Word value;
    uint64_t count;

    bool operator==(const ValueCount &) const = default;
};

/**
 * Exact value-frequency counter in a flat open-addressing table.
 *
 * One array of 16-byte (count, value) slots, power-of-two sized,
 * probed linearly from a multiplicative hash of the value. A zero
 * count marks a free slot (every stored value has been added at
 * least once), and the table doubles before it is more than half
 * full, so past its first 64 slots it holds 2-4 slots (32-64
 * bytes) per distinct value. A count is one probe into one cache
 * line in the common case, with no per-value allocation.
 *
 * Memory grows with the number of distinct values; the synthetic
 * workloads keep that bounded, and the paper's own study also
 * counted exactly (post-mortem over the full trace).
 */
class ValueCounterTable
{
  public:
    /** Count one observation of @p value. */
    void add(Word value);

    /** Number of distinct values seen. */
    uint64_t distinct() const { return distinct_; }

    /** Total observations. */
    uint64_t total() const { return total_; }

    /** Observations of one value (0 if never seen). */
    uint64_t countOf(Word value) const;

    /**
     * The @p k most frequent values, ordered by decreasing count;
     * ties broken by ascending value for determinism.
     */
    std::vector<ValueCount> topK(size_t k) const;

    /** Sum of the counts of the top @p k values. */
    uint64_t topKMass(size_t k) const;

    void clear();

  private:
    struct Slot
    {
        /** 0 = free. */
        uint64_t count = 0;
        Word value = 0;
    };

    /** The slot holding @p value, or the free slot that ends its
     * probe run. */
    size_t find(Word value) const;
    void grow();

    std::vector<Slot> slots_;
    /** Bits of the slot index: slots_.size() == 1 << bits_ once
     * allocated. */
    unsigned bits_ = 0;
    uint64_t distinct_ = 0;
    uint64_t total_ = 0;
};

/**
 * Space-Saving sketch (Metwally et al.): tracks approximately the
 * heaviest values using a fixed number of counters. This is the
 * kind of cheap online profiler one would actually build into
 * hardware or a profiling run to find the FVC's value set.
 */
class SpaceSavingSketch
{
  public:
    /** @param capacity number of monitored values (e.g. 64). */
    explicit SpaceSavingSketch(size_t capacity);

    void add(Word value);

    /** Estimated top-k (may overestimate counts; never misses a
     * value whose true count exceeds total/capacity). */
    std::vector<ValueCount> topK(size_t k) const;

    uint64_t total() const { return total_; }
    size_t capacity() const { return capacity_; }

  private:
    struct Entry
    {
        Word value;
        uint64_t count;
        uint64_t error;
    };

    size_t capacity_;
    uint64_t total_ = 0;
    std::vector<Entry> entries_;
    std::unordered_map<Word, size_t> index_;

    size_t minEntry() const;
};

} // namespace fvc::profiling

#endif // FVC_PROFILING_VALUE_TABLE_HH_
