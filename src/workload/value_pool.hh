/**
 * @file
 * ValuePool: the distribution of 32-bit values a synthetic workload
 * stores to memory.
 *
 * The paper's Table 1 shows that frequently occurring/accessed
 * values are a mix of small integers (0, 1, -1, 2, 4, ...),
 * pointer-like addresses (0x401dcb90, ...), and ASCII text words
 * (0x20207878, ...). A ValuePool models exactly this: a small set of
 * explicit frequent values carrying most of the probability mass,
 * plus "tail" generators producing the long tail of infrequent
 * values of the various shapes.
 */

#ifndef FVC_WORKLOAD_VALUE_POOL_HH_
#define FVC_WORKLOAD_VALUE_POOL_HH_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "trace/record.hh"
#include "util/random.hh"

namespace fvc::workload {

using trace::Word;

/** One frequent value and its relative weight within the pool. */
struct WeightedValue
{
    Word value;
    double weight;
};

/** Kind of infrequent-value tail generator. */
enum class TailKind {
    /** Uniform random 32-bit word. */
    RandomWord,
    /** Small integer in [0, span). */
    SmallInt,
    /** Word-aligned pointer into [base, base + span). */
    PointerLike,
    /** Four printable ASCII bytes. */
    AsciiText,
    /** Monotonically increasing counter starting at base. */
    Counter,
};

/** One tail generator with its relative weight. */
struct TailSpec
{
    TailKind kind;
    double weight;
    Word base = 0;
    Word span = 0;
};

/** Declarative description of a ValuePool. */
struct ValuePoolSpec
{
    /** Explicit frequent values (need not be sorted by weight). */
    std::vector<WeightedValue> frequent;
    /** Probability that a sample is drawn from @c frequent. */
    double frequent_mass = 0.5;
    /** Tail generators for the remaining mass. */
    std::vector<TailSpec> tails;
};

/**
 * Samples 32-bit values according to a ValuePoolSpec.
 *
 * The pool is stateless apart from Counter tails; all randomness
 * comes from the caller's Rng, so a pool can be shared.
 */
class ValuePool
{
  public:
    explicit ValuePool(ValuePoolSpec spec);

    /** Draw one value. */
    Word sample(util::Rng &rng);

    /** Draw a value guaranteed to come from the frequent set. */
    Word sampleFrequent(util::Rng &rng);

    /** Draw a value guaranteed to come from the tail. */
    Word sampleTail(util::Rng &rng);

    /** The frequent values ordered by decreasing weight. */
    const std::vector<WeightedValue> &rankedFrequent() const
    {
        return ranked_;
    }

    const ValuePoolSpec &spec() const { return spec_; }

  private:
    ValuePoolSpec spec_;
    std::vector<WeightedValue> ranked_;
    util::DiscreteSampler frequent_sampler_;
    util::DiscreteSampler tail_sampler_;
    std::vector<uint64_t> counters_;
};

/**
 * Convenience: the canonical "small integer" frequent set
 * {0, -1, 1, 2, 3, 4, ...} with geometrically decaying weights,
 * with 0 carrying @p zero_share of the frequent mass.
 */
std::vector<WeightedValue> smallIntFrequentSet(size_t count,
                                               double zero_share);

} // namespace fvc::workload

#endif // FVC_WORKLOAD_VALUE_POOL_HH_
