/**
 * @file
 * MultiConfigSimulator: single-pass simulation of a whole sweep
 * grid. One scan of a ChunkedTrace updates every configuration of a
 * (benchmark, trace) pair at once, instead of replaying the trace
 * once per grid cell.
 *
 * Two cell kinds, one replay engine (the lane kernel, lane_state.hh
 * / lane_kernel.hh, DESIGN.md §13):
 *
 *  - Bare DMC cells keep tags only. A write-back cache's
 *    hit/miss/fill/writeback counters depend only on the address/op
 *    stream — never on data values — so the data arrays, the
 *    per-system memory image, and all line-fill/writeback data
 *    movement of the full model are dropped while every counter
 *    stays byte-identical to cache::DmcSystem (the parity suites
 *    assert all eight CacheStats fields).
 *
 *  - DMC+FVC cells run the count-only DMC+FVC protocol: the full
 *    transfer protocol over metadata only. Every value-dependent
 *    decision in the protocol asks "is this value frequent?" about
 *    a *newest* program-order value, so one shared functional image
 *    that the engine advances in program order answers all of them,
 *    and per-system data arrays, code arrays, and memory images are
 *    elided. Counters, FvcStats and occupancy doubles are
 *    byte-identical to core::DmcFvcSystem. See DESIGN.md
 *    "Single-pass multi-configuration simulation" for the full
 *    argument, including why the classic inclusion property does
 *    NOT extend to the combined DMC+FVC system and every cell keeps
 *    its full state instead.
 *
 * The lane kernel runs at one of three ISA levels (scalar, AVX2,
 * AVX-512), all bit-identical; FVC_SIMD and forceKernel() pick it.
 *
 * Determinism: cells are updated in add order on one thread; the
 * engine holds no global state. Parallelism stays at the
 * (benchmark, trace) granularity via SweepRunner.
 */

#ifndef FVC_SIM_MULTI_CONFIG_HH_
#define FVC_SIM_MULTI_CONFIG_HH_

#include <map>
#include <vector>

#include "cache/config.hh"
#include "cache/stats.hh"
#include "core/dmc_fvc_system.hh"
#include "memmodel/functional_memory.hh"
#include "sim/batch_encoder.hh"
#include "sim/chunked_trace.hh"

namespace fvc::sim {

/**
 * Replay kernel selection. Auto resolves via FVC_SIMD and runtime
 * ISA detection at run() time; the concrete values force one ISA
 * level (tests and benches pin them to compare kernels).
 */
enum class ReplayKernel {
    Auto,
    LaneScalar,
    LaneAvx2,
    LaneAvx512,
};

/** "auto", "lane-scalar", "lane-avx2", "lane-avx512". */
const char *replayKernelName(ReplayKernel kernel);

/** The single-pass sweep engine for one (benchmark, trace) pair. */
class MultiConfigSimulator
{
  public:
    /**
     * @param trace the shared columnar trace (borrowed; must
     *              outlive the simulator)
     * @param initial_image the trace's preload image (borrowed)
     * @param frequent_values profiled frequent values, most
     *        frequent first (same list runDmcFvc() consumes)
     */
    MultiConfigSimulator(const ChunkedTrace &trace,
                         const memmodel::FunctionalMemory &initial_image,
                         std::vector<Word> frequent_values);

    MultiConfigSimulator(const MultiConfigSimulator &) = delete;
    MultiConfigSimulator &operator=(const MultiConfigSimulator &) =
        delete;

    /**
     * Add a bare DMC cell (write-back only: write-through caches
     * move data on the hit path, which the tag-only lanes elide).
     * @return the cell index for stats()/missRatePercent()
     */
    size_t addDmc(const cache::CacheConfig &config);

    /** Add a DMC+FVC cell; mirrors harness::runDmcFvc's setup. */
    size_t addDmcFvc(const cache::CacheConfig &dmc,
                     const core::FvcConfig &fvc,
                     core::DmcFvcPolicy policy = {});

    size_t cellCount() const { return cells_.size(); }

    /**
     * Pin the replay kernel, overriding FVC_SIMD. Must be called
     * before run(); forcing a lane ISA the binary/CPU cannot run is
     * an error.
     */
    void forceKernel(ReplayKernel kernel);

    /** The kernel run() actually used (valid after run()). */
    ReplayKernel resolvedKernel() const;

    /** Replay the trace once, updating every cell. Call once. */
    void run();

    /** Post-run combined stats of cell @p i (flush included). */
    const cache::CacheStats &stats(size_t cell) const;

    /** Shorthand: stats(cell).missRatePercent(). */
    double missRatePercent(size_t cell) const;

    /** FVC-side stats of a DMC+FVC cell; nullptr for bare DMC. */
    const core::FvcStats *fvcStats(size_t cell) const;

  private:
    struct Cell
    {
        bool is_fvc = false;
        cache::CacheConfig dmc;
        core::FvcConfig fvc;
        core::DmcFvcPolicy policy;
        /** encoders_ index (FVC cells only). */
        unsigned enc_group = 0;
    };

    const ChunkedTrace &trace_;
    const memmodel::FunctionalMemory &initial_image_;
    std::vector<Word> frequent_values_;

    std::vector<Cell> cells_;
    size_t n_fvc_cells_ = 0;
    /** One encoder per distinct code_bits; Cell::enc_group indexes
     * it. */
    std::map<unsigned, size_t> group_of_bits_;
    std::vector<BatchEncoder> encoders_;

    /** Post-run per-cell stats, filled by run(). */
    std::vector<cache::CacheStats> cell_stats_;
    std::vector<core::FvcStats> cell_fvc_stats_;

    /** One program-order image shared by every DMC+FVC cell. */
    memmodel::FunctionalMemory shared_image_;

    ReplayKernel forced_ = ReplayKernel::Auto;
    ReplayKernel used_ = ReplayKernel::Auto;
    bool ran_ = false;

    ReplayKernel resolveKernel() const;
};

} // namespace fvc::sim

#endif // FVC_SIM_MULTI_CONFIG_HH_
