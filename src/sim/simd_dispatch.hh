/**
 * @file
 * Runtime SIMD dispatch for the lane-parallel replay kernel: the
 * FVC_SIMD knob, compiled/available ISA queries, and the one-time
 * log line reporting the dispatched level.
 *
 * Compiled vs available: each ISA kernel TU is built with its own
 * per-file flags and reports whether those flags were actually in
 * effect (sanitizer rebuilds recompile the sources without them and
 * degrade to the scalar kernel); availability additionally requires
 * the running CPU to support the ISA.
 */

#ifndef FVC_SIM_SIMD_DISPATCH_HH_
#define FVC_SIM_SIMD_DISPATCH_HH_

#include <string>

namespace fvc::sim {

/**
 * FVC_SIMD knob: off pins the lane kernel's scalar ISA level, on
 * and auto select the best available ISA. Strict parse, same
 * contract as FVC_JOBS: anything other than exactly "auto", "on",
 * or "off" warns and falls back to Auto.
 */
enum class SimdMode {
    Auto,
    On,
    Off,
};

SimdMode simdMode();

/** ISA level of the lane kernel. */
enum class LaneIsa {
    Scalar,
    Avx2,
    Avx512,
};

/** "scalar", "avx2", "avx512". */
const char *laneIsaName(LaneIsa isa);

/** Compiled into this binary AND supported by the running CPU. */
bool laneIsaAvailable(LaneIsa isa);

/** The widest available ISA (Scalar is always available). */
LaneIsa bestLaneIsa();

/** Emit the dispatched-kernel inform line once per process
 * (thread-safe). */
void logReplayKernelOnce(const char *kernel_name);

/**
 * The ISA level an un-forced run would dispatch to right now:
 * "scalar" when FVC_SIMD=off, else the best available ISA name.
 * Recorded in bench JSON context (fvc_simd_isa) so compare_bench.py
 * can refuse cross-ISA comparisons.
 */
std::string simdKernelContextString();

} // namespace fvc::sim

#endif // FVC_SIM_SIMD_DISPATCH_HH_
