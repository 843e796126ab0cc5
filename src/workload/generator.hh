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

/**
 * A trace generator that executes a BenchmarkProfile's kernels
 * against a functional memory, producing a load/store/alloc/free
 * stream of the requested length. Deterministic given (profile,
 * accesses, seed).
 */
class SyntheticWorkload
{
  public:
    /**
     * @param profile the benchmark description
     * @param accesses number of Load/Store records to produce
     *                 (0 means profile.default_accesses)
     * @param seed RNG seed
     */
    SyntheticWorkload(const BenchmarkProfile &profile,
                      uint64_t accesses = 0, uint64_t seed = 1);
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

    /** Instruction count of the most recent record. */
    uint64_t currentIcount() const;

  private:
    class Impl;
    std::unique_ptr<Impl> impl_;
};

} // namespace fvc::workload

#endif // FVC_WORKLOAD_GENERATOR_HH_
