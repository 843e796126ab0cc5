/**
 * @file
 * Experiment runner: glue for generating a workload trace once and
 * simulating it through one or more cache systems.
 */

#ifndef FVC_HARNESS_RUNNER_HH_
#define FVC_HARNESS_RUNNER_HH_

#include <cstddef>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

#include "cache/cache_system.hh"
#include "core/dmc_fvc_system.hh"
#include "sim/chunked_trace.hh"
#include "workload/generator.hh"

namespace fvc::trace {
class MappedStore;
} // namespace fvc::trace

namespace fvc::harness {

/**
 * A prepared trace with its profiling results. The columns either
 * own heap storage (freshly generated) or are zero-copy views into
 * a mapped trace-store file, in which case @c mapping keeps the
 * file mapped. Move-only, like ChunkedTrace.
 */
struct PreparedTrace
{
    std::string name;
    /** The trace records, column-split (op/addr/value/icount). */
    sim::ChunkedTrace columns;
    /** Top frequently accessed values, most frequent first. */
    std::vector<trace::Word> frequent_values;
    /** Memory contents at trace start (the preload image). */
    memmodel::FunctionalMemory initial_image;
    /** Memory contents after the whole trace (ground truth). */
    memmodel::FunctionalMemory final_image;
    uint64_t instructions = 0;
    /** Owner of the mapping behind view-mode columns (or null). */
    std::shared_ptr<const trace::MappedStore> mapping;

    /** True iff the columns view an mmap()ed store file. */
    bool mapped() const { return mapping != nullptr; }
};

/**
 * Generate @p accesses records of @p profile, count the value of
 * every load and store, and keep the records for replay along with
 * the @p top_k most accessed values (most frequent first, ties
 * broken by ascending value).
 *
 * The paper finds frequent values via a profiling run and then
 * fixes them for the cache experiment; using the same trace for
 * both is the trace-driven equivalent.
 *
 * @param top_k how many frequent values to extract
 */
PreparedTrace prepareTrace(const workload::BenchmarkProfile &profile,
                           uint64_t accesses, uint64_t seed = 1,
                           size_t top_k = 10);

/** Always 1: every trace is one serial stream. Kept because the
 * gridbench driver reports it as gen_shards. */
inline uint32_t
genShards()
{
    return 1;
}

/** Install the preload image (the memory state the program built
 * before the traced window) into @p image. */
void installInitialImage(const PreparedTrace &trace,
                         memmodel::FunctionalMemory &image);

/**
 * Replay a prepared trace through a cache system (with flush). The
 * per-record loop calls @p System's access/flush explicitly
 * qualified, bypassing virtual dispatch; @p System must be final,
 * so no further-derived override can be skipped.
 */
template <typename System>
void
replay(const PreparedTrace &trace, System &system)
{
    static_assert(std::is_final_v<System>,
                  "replay needs a final CacheSystem type");
    installInitialImage(trace, system.System::memoryImage());
    // Column replay: works identically over owned and mmap-view
    // chunks, so a store-loaded trace replays with zero copies.
    for (const auto &chunk : trace.columns.chunks()) {
        const size_t n = chunk.size();
        for (size_t i = 0; i < n; ++i) {
            const auto op = static_cast<trace::Op>(chunk.op[i]);
            if (op != trace::Op::Load && op != trace::Op::Store)
                continue;
            system.System::access({op, chunk.addr[i],
                                   chunk.value[i],
                                   chunk.icount[i]});
        }
    }
    system.System::flush();
}

/** Shorthand: run a bare DMC and return its miss-rate percent. */
double dmcMissRate(const PreparedTrace &trace,
                   const cache::CacheConfig &config);

/**
 * Shorthand: run DMC + FVC using the trace's profiled values
 * truncated to the encoding capacity; returns the system for stats
 * inspection.
 */
std::unique_ptr<core::DmcFvcSystem>
runDmcFvc(const PreparedTrace &trace,
          const cache::CacheConfig &dmc_config,
          const core::FvcConfig &fvc_config);

/** The standard experiment trace length (accesses). Overridable via
 * the FVC_TRACE_ACCESSES environment variable for quick runs. */
uint64_t defaultTraceAccesses();

} // namespace fvc::harness

#endif // FVC_HARNESS_RUNNER_HH_
