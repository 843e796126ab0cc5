#include "sim/multi_config.hh"

#include <algorithm>

#include "sim/kernel_stats.hh"
#include "sim/lane_kernel.hh"
#include "sim/simd_dispatch.hh"
#include "util/logging.hh"

namespace fvc::sim {

const char *
replayKernelName(ReplayKernel kernel)
{
    switch (kernel) {
      case ReplayKernel::Auto: return "auto";
      case ReplayKernel::LaneScalar: return "lane-scalar";
      case ReplayKernel::LaneAvx2: return "lane-avx2";
      case ReplayKernel::LaneAvx512: return "lane-avx512";
    }
    fvc_panic("unreachable replay kernel");
}

MultiConfigSimulator::MultiConfigSimulator(
    const ChunkedTrace &trace,
    const memmodel::FunctionalMemory &initial_image,
    std::vector<Word> frequent_values)
    : trace_(trace), initial_image_(initial_image),
      frequent_values_(std::move(frequent_values))
{
}

size_t
MultiConfigSimulator::addDmc(const cache::CacheConfig &config)
{
    fvc_assert(!ran_, "cells must be added before run()");
    config.validate();
    fvc_assert(config.write_policy == cache::WritePolicy::WriteBack,
               "tag-only lanes require a write-back cache "
               "(write-through moves data on the hit path)");
    Cell cell;
    cell.is_fvc = false;
    cell.dmc = config;
    cells_.push_back(cell);
    return cells_.size() - 1;
}

size_t
MultiConfigSimulator::addDmcFvc(const cache::CacheConfig &dmc,
                                const core::FvcConfig &fvc,
                                core::DmcFvcPolicy policy)
{
    fvc_assert(!ran_, "cells must be added before run()");
    dmc.validate();
    fvc.validate();
    fvc_assert(dmc.write_policy == cache::WritePolicy::WriteBack,
               "count-only model requires a write-back DMC");
    fvc_assert(dmc.line_bytes == fvc.line_bytes,
               "FVC line size must match the main cache");
    fvc_assert(fvc.wordsPerLine() <= 64,
               "present mask holds at most 64 words per line");

    auto it = group_of_bits_.find(fvc.code_bits);
    if (it == group_of_bits_.end()) {
        // Same construction as harness::runDmcFvc: the profiled
        // list truncated to the encoding capacity.
        encoders_.emplace_back(core::FrequentValueEncoding(
            frequent_values_, fvc.code_bits));
        it = group_of_bits_
                 .emplace(fvc.code_bits, encoders_.size() - 1)
                 .first;
    }

    Cell cell;
    cell.is_fvc = true;
    cell.dmc = dmc;
    cell.fvc = fvc;
    cell.policy = policy;
    cell.enc_group = static_cast<unsigned>(it->second);
    cells_.push_back(cell);
    ++n_fvc_cells_;
    return cells_.size() - 1;
}

void
MultiConfigSimulator::forceKernel(ReplayKernel kernel)
{
    fvc_assert(!ran_, "forceKernel() must precede run()");
    if (kernel == ReplayKernel::LaneAvx2) {
        fvc_assert(laneIsaAvailable(LaneIsa::Avx2),
                   "AVX2 lane kernel not available");
    } else if (kernel == ReplayKernel::LaneAvx512) {
        fvc_assert(laneIsaAvailable(LaneIsa::Avx512),
                   "AVX-512 lane kernel not available");
    }
    forced_ = kernel;
}

ReplayKernel
MultiConfigSimulator::resolvedKernel() const
{
    fvc_assert(ran_, "resolvedKernel() before run()");
    return used_;
}

ReplayKernel
MultiConfigSimulator::resolveKernel() const
{
    if (forced_ != ReplayKernel::Auto)
        return forced_;
    if (simdMode() == SimdMode::Off)
        return ReplayKernel::LaneScalar;
    switch (bestLaneIsa()) {
      case LaneIsa::Avx512: return ReplayKernel::LaneAvx512;
      case LaneIsa::Avx2: return ReplayKernel::LaneAvx2;
      case LaneIsa::Scalar: return ReplayKernel::LaneScalar;
    }
    fvc_panic("unreachable lane ISA");
}

void
MultiConfigSimulator::run()
{
    fvc_assert(!ran_, "MultiConfigSimulator::run() runs once");
    ran_ = true;
    cell_stats_.assign(cells_.size(), {});
    cell_fvc_stats_.assign(cells_.size(), {});

    used_ = resolveKernel();
    logReplayKernelOnce(replayKernelName(used_));

    // The shared image starts exactly where each per-system image
    // would: the preload image's interesting words.
    const bool has_fvc = n_fvc_cells_ != 0;
    if (has_fvc) {
        initial_image_.forEachInteresting(
            [this](Addr addr, Word value) {
                shared_image_.write(addr, value);
            });
    }

    LaneGroupSet lanes;
    for (size_t i = 0; i < cells_.size(); ++i) {
        const Cell &c = cells_[i];
        if (c.is_fvc)
            lanes.addFvcLane(i, c.dmc, c.fvc, c.policy, c.enc_group);
        else
            lanes.addDmcLane(i, c.dmc);
    }
    lanes.finalize();

    LaneBlockFn fn = runLaneBlockScalar;
    if (used_ == ReplayKernel::LaneAvx2)
        fn = runLaneBlockAvx2;
    else if (used_ == ReplayKernel::LaneAvx512)
        fn = runLaneBlockAvx512;

    std::vector<const BatchEncoder *> encoders;
    for (const BatchEncoder &encoder : encoders_)
        encoders.push_back(&encoder);
    const size_t n_groups = encoders_.size();
    FreqWordMap freq_map;
    freq_map.init(encoders.data(), n_groups);

    std::vector<uint64_t> freq(std::max<size_t>(n_groups, 1), 0);
    Addr store_addr[kLaneBlockRecords];
    Word store_val[kLaneBlockRecords];
    uint8_t store_rec[kLaneBlockRecords];
    BlockCtx ctx;
    ctx.freq_masks = freq.data();
    ctx.store_addr = store_addr;
    ctx.store_val = store_val;
    ctx.store_rec = store_rec;
    ctx.image = &shared_image_;
    ctx.freq_map = &freq_map;

    // Encode-phase attribution (FVC_KERNEL_STATS=1): the mask/store
    // -log build, the frequent-mask encode, and the end-of-block
    // image advance are the per-block work outside the kernel's two
    // phases.
    const bool timing = laneKernelStatsEnabled();
    const auto encode_add = [timing](uint64_t t0) {
        if (timing)
            laneKernelStats().encode_cycles.fetch_add(
                kernelTimestamp() - t0, std::memory_order_relaxed);
    };

    for (const TraceChunk &chunk : trace_.chunks()) {
        const size_t n = chunk.size();
        const Addr *addrs = chunk.addr.data();
        const Word *values = chunk.value.data();
        const uint8_t *ops = chunk.op.data();

        for (size_t i0 = 0; i0 < n; i0 += kLaneBlockRecords) {
            const uint64_t te0 = timing ? kernelTimestamp() : 0;
            const size_t span =
                std::min(kLaneBlockRecords, n - i0);
            uint64_t amask = 0, smask = 0, filter = 0;
            uint32_t ns = 0;
            for (size_t k = 0; k < span; ++k) {
                const auto op = static_cast<trace::Op>(ops[i0 + k]);
                if (op == trace::Op::Load) {
                    amask |= uint64_t{1} << k;
                } else if (op == trace::Op::Store) {
                    amask |= uint64_t{1} << k;
                    smask |= uint64_t{1} << k;
                    filter |= uint64_t{1}
                              << ((addrs[i0 + k] >> 5) & 63);
                    store_addr[ns] = addrs[i0 + k];
                    store_val[ns] = values[i0 + k];
                    store_rec[ns] = static_cast<uint8_t>(k);
                    ++ns;
                }
            }
            if (amask == 0) {
                encode_add(te0);
                continue;
            }

            ctx.addrs = addrs + i0;
            ctx.values = values + i0;
            ctx.n = span;
            ctx.access_mask = amask;
            ctx.store_mask = smask;
            ctx.n_stores = ns;
            ctx.store_line_filter = filter;
            if (has_fvc) {
                for (size_t e = 0; e < n_groups; ++e)
                    freq[e] = encoders_[e].frequentMask(
                        values + i0, span);
            }
            encode_add(te0);

            for (LaneGroup &g : lanes.groups())
                fn(g, ctx);

            // Advance the shared image only after every lane group
            // consumed the block (in-block ordering is handled by
            // the store-log overlay, see lane_state.hh). The
            // frequent-bit mirror advances in lockstep; each
            // store's bits are already in the block masks.
            if (has_fvc) {
                const uint64_t te1 =
                    timing ? kernelTimestamp() : 0;
                for (uint32_t j = 0; j < ns; ++j) {
                    uint8_t fbits = 0;
                    for (size_t e = 0; e < n_groups; ++e)
                        fbits |= static_cast<uint8_t>(
                            ((freq[e] >> store_rec[j]) & 1u) << e);
                    freq_map.noteStore(store_addr[j], fbits);
                    shared_image_.write(store_addr[j],
                                        store_val[j]);
                }
                encode_add(te1);
            }
        }
    }

    lanes.flush();
    for (const LaneGroup &g : lanes.groups()) {
        for (const Lane &lane : g.lanes) {
            cell_stats_[lane.cell] = lane.stats;
            if (g.is_fvc)
                cell_fvc_stats_[lane.cell] = lane.fvc_stats;
        }
    }
}

const cache::CacheStats &
MultiConfigSimulator::stats(size_t cell) const
{
    fvc_assert(ran_, "stats() before run()");
    fvc_assert(cell < cells_.size(), "bad cell index");
    return cell_stats_[cell];
}

double
MultiConfigSimulator::missRatePercent(size_t cell) const
{
    return stats(cell).missRatePercent();
}

const core::FvcStats *
MultiConfigSimulator::fvcStats(size_t cell) const
{
    fvc_assert(ran_, "fvcStats() before run()");
    fvc_assert(cell < cells_.size(), "bad cell index");
    return cells_[cell].is_fvc ? &cell_fvc_stats_[cell] : nullptr;
}

} // namespace fvc::sim
