#include "sim/kernel_stats.hh"

#include "util/knobs.hh"

namespace fvc::sim {

bool
laneKernelStatsEnvEnabled()
{
    return util::knobChoice("FVC_KERNEL_STATS",
                            {{"0", false}, {"1", true}}, false);
}

bool
laneKernelStatsEnabled()
{
    static const bool enabled = laneKernelStatsEnvEnabled();
    return enabled;
}

LaneKernelStats &
laneKernelStats()
{
    static LaneKernelStats stats;
    return stats;
}

void
resetLaneKernelStats()
{
    LaneKernelStats &s = laneKernelStats();
    s.hit_cycles.store(0, std::memory_order_relaxed);
    s.drain_cycles.store(0, std::memory_order_relaxed);
    s.encode_cycles.store(0, std::memory_order_relaxed);
    s.hit_records.store(0, std::memory_order_relaxed);
    s.drain_records.store(0, std::memory_order_relaxed);
    s.blocks.store(0, std::memory_order_relaxed);
}

} // namespace fvc::sim
