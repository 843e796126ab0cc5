/**
 * @file
 * SyntheticWorkload: turns a BenchmarkProfile into a trace stream.
 */

#ifndef FVC_WORKLOAD_GENERATOR_HH_
#define FVC_WORKLOAD_GENERATOR_HH_

#include <deque>
#include <memory>

#include "memmodel/functional_memory.hh"
#include "trace/record.hh"
#include "workload/profile.hh"

namespace fvc::workload {

/** Maximum shard count of the sharded generation mode. */
inline constexpr uint32_t kMaxGenShards = 16;

/**
 * Byte distance between consecutive shards' address bands (8 MB):
 * a multiple of every modelled cache size, so offsetting a kernel's
 * base by it preserves set-index alignment, and small enough that
 * kMaxGenShards bands (128 MB) stay inside the 256 MB gaps between
 * the profiles' fixed kernel regions.
 */
inline constexpr trace::Addr kGenShardAddrStride = 0x00800000;

/**
 * One shard of a sharded generation (see prepareTraceSharded).
 * Shard @c index of @c count generates its slice of the access
 * budget with a derived seed, kernels offset into the shard's own
 * address band, and value-pool phases driven by *global* progress —
 * so stitching the shards in index order yields one deterministic
 * trace, independent of how many threads generated them.
 * The default (index 0 of 1) is exactly the classic serial stream.
 */
struct GenShard
{
    uint32_t index = 0;
    uint32_t count = 1;
};

/**
 * A trace generator that executes a BenchmarkProfile's kernels
 * against a functional memory, producing a load/store/alloc/free
 * stream of the requested length. Deterministic given (profile,
 * seed, shard).
 */
class SyntheticWorkload
{
  public:
    /**
     * @param profile the benchmark description
     * @param accesses number of Load/Store records the *whole*
     *                 workload produces across all shards
     *                 (0 means profile.default_accesses)
     * @param seed RNG seed
     * @param shard which slice of the workload to generate
     */
    SyntheticWorkload(BenchmarkProfile profile, uint64_t accesses = 0,
                      uint64_t seed = 1, GenShard shard = {});
    ~SyntheticWorkload();

    /**
     * Produce the next record.
     *
     * @param out filled with the next record on success
     * @retval true a record was produced
     * @retval false the stream is exhausted
     */
    bool next(trace::MemRecord &out);

    /** Ground-truth memory image (valid at any point mid-stream). */
    const memmodel::FunctionalMemory &memory() const;

    /**
     * Snapshot of memory at trace start (after the silent preload
     * phase that builds the workload's initial data structures).
     * Cache simulations must install this image into their backing
     * memory before replaying the trace.
     */
    const memmodel::FunctionalMemory &initialImage() const;

    /** The (possibly shard-offset) profile driving this stream. */
    const BenchmarkProfile &profile() const { return profile_; }

    /** Accesses *this shard's* stream will produce. */
    uint64_t targetAccesses() const { return target_accesses_; }

    /** Instruction count of the most recent record. */
    uint64_t currentIcount() const;

  private:
    class Impl;
    std::unique_ptr<Impl> impl_;
    BenchmarkProfile profile_;
    uint64_t target_accesses_;
};

/** Accesses shard @p index of @p count emits out of @p total
 * (the leading @c total%count shards carry one extra access). */
uint64_t shardTargetAccesses(uint64_t total, uint32_t index,
                             uint32_t count);

/** Sum of the targets of shards before @p index (global progress
 * base of shard @p index). */
uint64_t shardProgressBase(uint64_t total, uint32_t index,
                           uint32_t count);

/** Convenience factory. */
std::unique_ptr<SyntheticWorkload>
makeWorkload(const BenchmarkProfile &profile, uint64_t accesses = 0,
             uint64_t seed = 1);

} // namespace fvc::workload

#endif // FVC_WORKLOAD_GENERATOR_HH_
