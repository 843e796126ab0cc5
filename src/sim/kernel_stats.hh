/**
 * @file
 * Per-phase instrumentation for the lane replay kernel, behind the
 * FVC_KERNEL_STATS=1 knob.
 *
 * The lane kernel (lane_kernel_impl.hh) splits each block into a
 * vector hit walk (with inline misses on the direct-mapped path)
 * and a queued miss drain (associative path), and the engine adds a
 * per-block encode step (frequent-value masks, store log, image
 * advance). When the knob is on, each phase accumulates its
 * timestamp-counter cycles and retired record counts into one
 * process-global struct; bench/microbench.cc emits the totals as
 * per-benchmark counters so bench/compare_bench.py can attribute a
 * sweep regression to the phase that caused it. When the knob is
 * off (the default) the kernel pays one predictable branch per
 * block and the counters stay untouched.
 */

#ifndef FVC_SIM_KERNEL_STATS_HH_
#define FVC_SIM_KERNEL_STATS_HH_

#include <atomic>
#include <chrono>
#include <cstdint>

namespace fvc::sim {

/**
 * Process-global per-phase totals. Relaxed atomics: sweep workers
 * may run lane kernels concurrently, and the counters are
 * attribution aids, not synchronization points.
 */
struct LaneKernelStats
{
    std::atomic<uint64_t> hit_cycles{0};
    std::atomic<uint64_t> drain_cycles{0};
    std::atomic<uint64_t> encode_cycles{0};
    /** Records retired as hits by the walk (including careful
     * occupancy-sample lanes, which replay fully inline there). */
    std::atomic<uint64_t> hit_records{0};
    /** Records that took the slow path: queued for the phase-2
     * drain, or run through the inline miss path on the
     * direct-mapped walk (whose cycles land in hit_cycles — the
     * inline misses are interleaved with the hit loop; drain_cycles
     * covers queue drains only). */
    std::atomic<uint64_t> drain_records{0};
    std::atomic<uint64_t> blocks{0};
};

/**
 * FVC_KERNEL_STATS, read per call (util::knobChoice): "1" is on,
 * "0" (or unset) is off, anything else warns and stays off. Exposed
 * separately from the cached query so tests can exercise the parse
 * without process-global caching getting in the way.
 */
bool laneKernelStatsEnvEnabled();

/** The FVC_KERNEL_STATS knob, read once and cached (the kernel
 * consults this per block). */
bool laneKernelStatsEnabled();

LaneKernelStats &laneKernelStats();

/** Zero every counter (benchmarks reset between measurements). */
void resetLaneKernelStats();

/** Monotonic cycle stamp: TSC on x86, steady-clock ns elsewhere. */
inline uint64_t
kernelTimestamp()
{
#if defined(__x86_64__) || defined(__i386__)
    return __builtin_ia32_rdtsc();
#else
    return static_cast<uint64_t>(
        std::chrono::steady_clock::now().time_since_epoch().count());
#endif
}

} // namespace fvc::sim

#endif // FVC_SIM_KERNEL_STATS_HH_
