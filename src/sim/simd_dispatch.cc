#include "sim/simd_dispatch.hh"

#include <mutex>

#include "sim/lane_kernel.hh"
#include "util/knobs.hh"
#include "util/logging.hh"

namespace fvc::sim {

SimdMode
simdMode()
{
    return util::knobChoice<SimdMode>("FVC_SIMD",
                                      {{"auto", SimdMode::Auto},
                                       {"on", SimdMode::On},
                                       {"off", SimdMode::Off}},
                                      SimdMode::Auto);
}

const char *
laneIsaName(LaneIsa isa)
{
    switch (isa) {
      case LaneIsa::Scalar: return "scalar";
      case LaneIsa::Avx2: return "avx2";
      case LaneIsa::Avx512: return "avx512";
    }
    fvc_panic("unreachable lane ISA");
}

bool
laneIsaAvailable(LaneIsa isa)
{
    switch (isa) {
      case LaneIsa::Scalar:
        return true;
      case LaneIsa::Avx2:
        return laneKernelAvx2Compiled() &&
               __builtin_cpu_supports("avx2");
      case LaneIsa::Avx512:
        return laneKernelAvx512Compiled() &&
               __builtin_cpu_supports("avx512f");
    }
    fvc_panic("unreachable lane ISA");
}

LaneIsa
bestLaneIsa()
{
    if (laneIsaAvailable(LaneIsa::Avx512))
        return LaneIsa::Avx512;
    if (laneIsaAvailable(LaneIsa::Avx2))
        return LaneIsa::Avx2;
    return LaneIsa::Scalar;
}

void
logReplayKernelOnce(const char *kernel_name)
{
    // Concurrent run()s (the result repository's thread backend,
    // the daemon) all reach here; call_once keeps it race-free.
    static std::once_flag logged;
    std::call_once(logged, [kernel_name] {
        fvc_inform("multi-config replay kernel: ", kernel_name);
    });
}

std::string
simdKernelContextString()
{
    if (simdMode() == SimdMode::Off)
        return laneIsaName(LaneIsa::Scalar);
    return laneIsaName(bestLaneIsa());
}

} // namespace fvc::sim
