/**
 * @file
 * Parity suite for the SIMD lane-parallel replay kernel: every
 * kernel level (lane-scalar, and whichever of lane-avx2 /
 * lane-avx512 this machine can run) must reproduce the per-cell
 * full models (DmcSystem / DmcFvcSystem) bit for bit — CacheStats,
 * FvcStats, and occupancy doubles — across the SPECint95 profiles,
 * randomized geometries, non-multiple-of-lane-width cell counts,
 * and mixed DMC-only / DMC+FVC grids.
 */

#include <cstdlib>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "cache/cache_system.hh"
#include "core/dmc_fvc_system.hh"
#include "harness/runner.hh"
#include "sim/chunked_trace.hh"
#include "sim/kernel_stats.hh"
#include "sim/multi_config.hh"
#include "sim/simd_dispatch.hh"
#include "trace/record.hh"
#include "util/logging.hh"
#include "util/random.hh"
#include "workload/profile.hh"

#include "env_guard.hh"

namespace {

using namespace fvc;
using test::ScopedEnv;

struct GridCell
{
    bool is_fvc = false;
    cache::CacheConfig dmc;
    core::FvcConfig fvc;
    core::DmcFvcPolicy policy;
};

struct CellResult
{
    cache::CacheStats stats;
    core::FvcStats fvc;
    bool has_fvc = false;
};

std::vector<CellResult>
runGrid(const harness::PreparedTrace &trace,
        const std::vector<GridCell> &cells,
        sim::ReplayKernel kernel)
{
    sim::MultiConfigSimulator engine(trace.columns,
                                     trace.initial_image,
                                     trace.frequent_values);
    engine.forceKernel(kernel);
    for (const GridCell &c : cells) {
        if (c.is_fvc)
            engine.addDmcFvc(c.dmc, c.fvc, c.policy);
        else
            engine.addDmc(c.dmc);
    }
    engine.run();
    EXPECT_EQ(engine.resolvedKernel(), kernel);

    std::vector<CellResult> out;
    for (size_t i = 0; i < cells.size(); ++i) {
        CellResult r;
        r.stats = engine.stats(i);
        if (const core::FvcStats *f = engine.fvcStats(i)) {
            r.has_fvc = true;
            r.fvc = *f;
        }
        out.push_back(r);
    }
    return out;
}

/**
 * The per-cell full models, one replay per cell: the reference
 * every lane kernel must reproduce (the policy applied as
 * DiffRunner::runSerial applies it).
 */
std::vector<CellResult>
runReference(const harness::PreparedTrace &trace,
             const std::vector<GridCell> &cells)
{
    std::vector<CellResult> out;
    for (const GridCell &c : cells) {
        CellResult r;
        if (c.is_fvc) {
            core::DmcFvcSystem system(
                c.dmc, c.fvc,
                core::FrequentValueEncoding(trace.frequent_values,
                                            c.fvc.code_bits),
                c.policy);
            harness::replay(trace, system);
            r.stats = system.stats();
            r.fvc = system.fvcStats();
            r.has_fvc = true;
        } else {
            cache::DmcSystem system(c.dmc);
            harness::replay(trace, system);
            r.stats = system.stats();
        }
        out.push_back(r);
    }
    return out;
}

/** The lane kernels this binary + CPU can actually run. */
std::vector<sim::ReplayKernel>
availableLaneKernels()
{
    std::vector<sim::ReplayKernel> out = {
        sim::ReplayKernel::LaneScalar};
    if (sim::laneIsaAvailable(sim::LaneIsa::Avx2))
        out.push_back(sim::ReplayKernel::LaneAvx2);
    if (sim::laneIsaAvailable(sim::LaneIsa::Avx512))
        out.push_back(sim::ReplayKernel::LaneAvx512);
    return out;
}

void
expectCellEqual(const CellResult &want, const CellResult &got,
                const std::string &what)
{
    EXPECT_EQ(want.stats.read_hits, got.stats.read_hits) << what;
    EXPECT_EQ(want.stats.read_misses, got.stats.read_misses) << what;
    EXPECT_EQ(want.stats.write_hits, got.stats.write_hits) << what;
    EXPECT_EQ(want.stats.write_misses, got.stats.write_misses)
        << what;
    EXPECT_EQ(want.stats.fills, got.stats.fills) << what;
    EXPECT_EQ(want.stats.writebacks, got.stats.writebacks) << what;
    EXPECT_EQ(want.stats.fetch_bytes, got.stats.fetch_bytes) << what;
    EXPECT_EQ(want.stats.writeback_bytes, got.stats.writeback_bytes)
        << what;
    ASSERT_EQ(want.has_fvc, got.has_fvc) << what;
    if (!want.has_fvc)
        return;
    EXPECT_EQ(want.fvc.fvc_read_hits, got.fvc.fvc_read_hits) << what;
    EXPECT_EQ(want.fvc.fvc_write_hits, got.fvc.fvc_write_hits)
        << what;
    EXPECT_EQ(want.fvc.partial_misses, got.fvc.partial_misses)
        << what;
    EXPECT_EQ(want.fvc.write_allocations, got.fvc.write_allocations)
        << what;
    EXPECT_EQ(want.fvc.insertions, got.fvc.insertions) << what;
    EXPECT_EQ(want.fvc.insertions_skipped,
              got.fvc.insertions_skipped)
        << what;
    EXPECT_EQ(want.fvc.fvc_writebacks, got.fvc.fvc_writebacks)
        << what;
    EXPECT_EQ(want.fvc.occupancy_samples, got.fvc.occupancy_samples)
        << what;
    // Exact double comparison: the occupancy accumulation order
    // must match bit-for-bit, not just approximately.
    EXPECT_EQ(want.fvc.occupancy_sum, got.fvc.occupancy_sum) << what;
}

void
expectKernelsAgree(const harness::PreparedTrace &trace,
                   const std::vector<GridCell> &cells,
                   const std::string &what)
{
    auto want = runReference(trace, cells);
    for (sim::ReplayKernel kernel : availableLaneKernels()) {
        auto got = runGrid(trace, cells, kernel);
        ASSERT_EQ(want.size(), got.size());
        for (size_t i = 0; i < want.size(); ++i) {
            expectCellEqual(want[i], got[i],
                            what + " " +
                                sim::replayKernelName(kernel) +
                                " cell " + std::to_string(i));
        }
    }
}

// Every SPECint95 profile, a mixed grid: bare DMC lanes across
// replacement policies plus DMC+FVC lanes across code widths and
// occupancy intervals (including a small interval that forces the
// per-access countdown path, and 0 = never sample).
TEST(SimdKernel, AllKernelsMatchOnAllSpecIntProfiles)
{
    uint64_t seed = 23;
    for (auto bench : workload::allSpecInt()) {
        auto profile = workload::specIntProfile(bench);
        auto trace = harness::prepareTrace(profile, 25000, seed);

        std::vector<GridCell> cells;
        GridCell bare;
        bare.dmc.size_bytes = 8 * 1024;
        bare.dmc.line_bytes = 32;
        cells.push_back(bare);
        bare.dmc.size_bytes = 16 * 1024;
        bare.dmc.assoc = 2;
        bare.dmc.replacement = cache::Replacement::FIFO;
        cells.push_back(bare);
        bare.dmc.assoc = 4;
        bare.dmc.replacement = cache::Replacement::Random;
        cells.push_back(bare);

        for (unsigned bits : {1u, 2u, 3u}) {
            GridCell cell;
            cell.is_fvc = true;
            cell.dmc.size_bytes = 8u * 1024 << (bits - 1);
            cell.dmc.line_bytes = 32;
            cell.fvc.entries = 256;
            cell.fvc.line_bytes = 32;
            cell.fvc.code_bits = bits;
            // bits=1: the per-access countdown path fires in nearly
            // every block; bits=2: sampling disabled entirely.
            cell.policy.occupancy_sample_interval =
                bits == 1 ? 48 : bits == 2 ? 0 : 4096;
            cells.push_back(cell);
        }

        expectKernelsAgree(trace, cells, profile.name);
        ++seed;
    }
}

// Randomized geometries (sizes, lines, associativities, policies,
// FVC shapes) over a few profiles, with deliberately awkward cell
// counts — 5 and 13 are not multiples of any vector width, so lane
// groups end up ragged.
TEST(SimdKernel, RandomizedGeometriesMatch)
{
    const std::vector<uint32_t> sizes = {4096, 8192, 16384, 32768};
    const std::vector<uint32_t> line_sizes = {16, 32, 64};
    const std::vector<uint32_t> assocs = {1, 2, 4};
    const std::vector<uint32_t> entry_counts = {64, 128, 256, 512};
    const std::vector<cache::Replacement> policies = {
        cache::Replacement::LRU, cache::Replacement::FIFO,
        cache::Replacement::Random};
    const std::vector<workload::SpecInt> benches = {
        workload::SpecInt::Go099, workload::SpecInt::Compress129,
        workload::SpecInt::Vortex147};

    util::Rng rng(20260807);
    uint64_t seed = 5;
    for (auto bench : benches) {
        auto profile = workload::specIntProfile(bench);
        auto trace = harness::prepareTrace(profile, 20000, seed);

        for (size_t n_cells : {5u, 13u}) {
            std::vector<GridCell> cells;
            for (size_t i = 0; i < n_cells; ++i) {
                GridCell cell;
                cell.dmc.size_bytes =
                    sizes[rng.below(sizes.size())];
                cell.dmc.line_bytes =
                    line_sizes[rng.below(line_sizes.size())];
                cell.dmc.assoc = assocs[rng.below(assocs.size())];
                cell.dmc.replacement =
                    policies[rng.below(policies.size())];
                cell.is_fvc = rng.below(2) == 1;
                if (cell.is_fvc) {
                    cell.fvc.entries =
                        entry_counts[rng.below(entry_counts.size())];
                    cell.fvc.line_bytes = cell.dmc.line_bytes;
                    cell.fvc.code_bits =
                        1 + static_cast<unsigned>(rng.below(3));
                    cell.fvc.assoc =
                        assocs[rng.below(assocs.size())];
                    cell.policy.skip_barren_insertions =
                        rng.below(2) == 1;
                    cell.policy.write_allocate_frequent =
                        rng.below(2) == 1;
                    cell.policy.occupancy_sample_interval =
                        rng.below(2) == 1 ? 512 : 4096;
                }
                cells.push_back(cell);
            }
            expectKernelsAgree(trace, cells,
                               profile.name + " n=" +
                                   std::to_string(n_cells));
        }
        ++seed;
    }
}

// Adversarial geometries for the miss engines: caches so tiny (one
// or two sets) that nearly every record takes the slow path — the
// inline miss walk with its post-miss prediction repair on
// direct-mapped lanes, the set-sticky queue and drain on
// associative ones — the opposite extreme from the mostly-hit gate
// workload. Covers assoc 1 and 4, all three replacement policies,
// a 4-way FVC, and a sample interval small enough to force the
// careful (inline) path — and asserts the grid really is
// miss-dominated, so the miss paths are what's being compared, not
// the hit loop.
TEST(SimdKernel, HighMissRateTinyGeometries)
{
    // A hand-built locality-free trace: even a one-line cache hits
    // the SPECint synthetics on ~36% of accesses (tight same-word
    // reuse), so scrambled addresses are the only way to force a
    // genuinely drain-dominated block stream. Values cycle through
    // a small set so the FVC cells still see frequent content.
    util::Rng rng(20260807);
    std::vector<trace::MemRecord> records;
    for (uint64_t i = 0; i < 20000; ++i) {
        trace::MemRecord rec;
        rec.op = i % 7 == 3 ? trace::Op::Store : trace::Op::Load;
        rec.addr = static_cast<trace::Addr>(rng.below(1 << 18)) *
                   trace::kWordBytes;
        rec.value = static_cast<trace::Word>(rng.below(10));
        rec.icount = i + 1;
        records.push_back(rec);
    }
    harness::PreparedTrace trace;
    trace.name = "high-miss";
    trace.columns = sim::ChunkedTrace::fromRecords(records);
    trace.frequent_values = {0, 1, 2, 3, 4, 5, 6, 7};
    for (const trace::MemRecord &rec : records) {
        if (rec.isStore())
            trace.final_image.write(rec.addr, rec.value);
    }
    trace.instructions = records.size();

    std::vector<GridCell> cells;
    GridCell bare;
    bare.dmc.size_bytes = 8; // one set, one 8-byte line
    bare.dmc.line_bytes = 8;
    cells.push_back(bare);
    bare.dmc.size_bytes = 32; // two 16-byte sets
    bare.dmc.line_bytes = 16;
    bare.dmc.replacement = cache::Replacement::FIFO;
    cells.push_back(bare);
    bare.dmc.size_bytes = 64; // one 4-way set of 16-byte lines
    bare.dmc.assoc = 4;
    bare.dmc.replacement = cache::Replacement::Random;
    cells.push_back(bare);
    bare.dmc.replacement = cache::Replacement::LRU;
    cells.push_back(bare);

    GridCell fvc;
    fvc.is_fvc = true;
    fvc.dmc.size_bytes = 16; // one set
    fvc.dmc.line_bytes = 16;
    fvc.fvc.entries = 8;
    fvc.fvc.line_bytes = 16;
    fvc.fvc.code_bits = 2;
    fvc.fvc.assoc = 4;
    // Fires the per-access countdown (careful path) every block.
    fvc.policy.occupancy_sample_interval = 32;
    cells.push_back(fvc);
    fvc.dmc.size_bytes = 32; // two sets, 4-way FVC, LRU drain
    fvc.fvc.assoc = 4;
    fvc.policy.occupancy_sample_interval = 4096;
    fvc.policy.write_allocate_frequent = true;
    cells.push_back(fvc);

    // The point of the suite is a miss-dominated workload: >80% of
    // each cell's accesses must take the slow path. For FVC cells
    // an FVC hit counts — it is a DMC tag miss, so the lane kernel
    // runs its miss path even though the merged stats record it as
    // a hit.
    auto reference = runReference(trace, cells);
    for (size_t i = 0; i < reference.size(); ++i) {
        const cache::CacheStats &s = reference[i].stats;
        uint64_t drained = s.read_misses + s.write_misses;
        const uint64_t accesses =
            drained + s.read_hits + s.write_hits;
        if (reference[i].has_fvc) {
            drained += reference[i].fvc.fvc_read_hits +
                       reference[i].fvc.fvc_write_hits;
        }
        ASSERT_GT(accesses, 0u);
        EXPECT_GT(static_cast<double>(drained) /
                      static_cast<double>(accesses),
                  0.8)
            << "cell " << i << " is not miss-dominated";
    }

    expectKernelsAgree(trace, cells, "tiny-geometry");
}

// The miss queue's capacity boundary: a block is at most 64 records
// (kLaneBlockRecords), so a one-set direct-mapped cell walking 128
// distinct lines makes every record of every block a miss — the
// lane-scalar queue walk fills its per-lane segment to exactly the
// 64-entry brim, while the vector walks take the inline miss path
// on every record. The second half revisits the same lines (all
// evicted by then), so every access in the trace is a miss.
TEST(SimdKernel, MissQueueOverflowBoundary)
{
    constexpr uint32_t kLine = 32;
    std::vector<trace::MemRecord> records;
    for (int pass = 0; pass < 2; ++pass) {
        for (uint64_t i = 0; i < 128; ++i) {
            trace::MemRecord rec;
            rec.op = i % 8 == 5 ? trace::Op::Store : trace::Op::Load;
            rec.addr = i * kLine;
            rec.value = i % 8 == 5 ? 7 : 0;
            rec.icount = pass * 128 + i + 1;
            records.push_back(rec);
        }
    }

    harness::PreparedTrace trace;
    trace.name = "overflow-boundary";
    trace.columns = sim::ChunkedTrace::fromRecords(records);
    trace.frequent_values = {0, 7, 1, 2, 3, 4, 5};
    for (const trace::MemRecord &rec : records) {
        if (rec.isStore())
            trace.final_image.write(rec.addr, rec.value);
    }
    trace.instructions = records.size();

    GridCell bare;
    bare.dmc.size_bytes = kLine; // one set: every access conflicts
    bare.dmc.line_bytes = kLine;

    GridCell fvc = bare;
    fvc.is_fvc = true;
    fvc.fvc.entries = 16;
    fvc.fvc.line_bytes = kLine;
    fvc.fvc.code_bits = 3;

    const std::vector<GridCell> cells = {bare, fvc};
    auto reference = runReference(trace, cells);
    for (size_t i = 0; i < reference.size(); ++i) {
        const cache::CacheStats &s = reference[i].stats;
        EXPECT_EQ(s.read_hits + s.write_hits, 0u) << "cell " << i;
        EXPECT_EQ(s.read_misses + s.write_misses, records.size())
            << "cell " << i;
    }

    expectKernelsAgree(trace, cells, "overflow-boundary");
}

// The FVC_KERNEL_STATS knob parses strictly, like FVC_SIMD: only
// "1" enables, unset/empty/"0" disable, garbage warns and disables.
TEST(SimdKernel, KernelStatsEnvStrictParse)
{
    auto enabled = [](const char *value) {
        ScopedEnv env("FVC_KERNEL_STATS", value);
        return sim::laneKernelStatsEnvEnabled();
    };
    EXPECT_FALSE(enabled(nullptr));
    EXPECT_FALSE(enabled(""));
    EXPECT_FALSE(enabled("0"));
    EXPECT_TRUE(enabled("1"));
    EXPECT_FALSE(enabled("yes"));
}

// Degenerate grid shapes: a single cell, a DMC-only grid (no shared
// image, no encoders), and an FVC-only grid.
TEST(SimdKernel, DegenerateGridShapes)
{
    auto trace = harness::prepareTrace(
        workload::specIntProfile(workload::SpecInt::Li130), 20000,
        17);

    GridCell bare;
    bare.dmc.size_bytes = 8 * 1024;
    bare.dmc.line_bytes = 32;

    GridCell fvc;
    fvc.is_fvc = true;
    fvc.dmc.size_bytes = 16 * 1024;
    fvc.dmc.line_bytes = 32;
    fvc.fvc.entries = 256;
    fvc.fvc.line_bytes = 32;
    fvc.fvc.code_bits = 3;

    expectKernelsAgree(trace, {bare}, "single bare");
    expectKernelsAgree(trace, {fvc}, "single fvc");
    expectKernelsAgree(trace, {bare, bare, bare}, "dmc-only");
    expectKernelsAgree(trace, {fvc, fvc, fvc}, "fvc-only");
}

TEST(SimdKernel, EnvKnobStrictParse)
{
    {
        ScopedEnv env("FVC_SIMD", nullptr);
        EXPECT_EQ(sim::simdMode(), sim::SimdMode::Auto);
    }
    {
        ScopedEnv env("FVC_SIMD", "auto");
        EXPECT_EQ(sim::simdMode(), sim::SimdMode::Auto);
    }
    {
        ScopedEnv env("FVC_SIMD", "on");
        EXPECT_EQ(sim::simdMode(), sim::SimdMode::On);
    }
    {
        ScopedEnv env("FVC_SIMD", "off");
        EXPECT_EQ(sim::simdMode(), sim::SimdMode::Off);
    }
    {
        // Garbage is a warning and falls back to Auto, not a
        // silent engine switch (strict parse, like FVC_JOBS).
        ScopedEnv env("FVC_SIMD", "ON");
        uint64_t warns = util::warnCount();
        EXPECT_EQ(sim::simdMode(), sim::SimdMode::Auto);
        EXPECT_GT(util::warnCount(), warns);
    }
}

// FVC_SIMD drives the un-forced engine: off pins lane-scalar,
// on/auto dispatch the lane kernel at the best available ISA.
TEST(SimdKernel, EnvKnobSelectsEngine)
{
    auto trace = harness::prepareTrace(
        workload::specIntProfile(workload::SpecInt::Go099), 5000,
        29);
    GridCell cell;
    cell.dmc.size_bytes = 8 * 1024;
    cell.dmc.line_bytes = 32;

    auto resolved = [&](const char *mode) {
        ScopedEnv env("FVC_SIMD", mode);
        sim::MultiConfigSimulator engine(trace.columns,
                                         trace.initial_image,
                                         trace.frequent_values);
        engine.addDmc(cell.dmc);
        engine.run();
        return engine.resolvedKernel();
    };

    EXPECT_EQ(resolved("off"), sim::ReplayKernel::LaneScalar);

    sim::ReplayKernel expect_lane = sim::ReplayKernel::LaneScalar;
    if (sim::laneIsaAvailable(sim::LaneIsa::Avx512))
        expect_lane = sim::ReplayKernel::LaneAvx512;
    else if (sim::laneIsaAvailable(sim::LaneIsa::Avx2))
        expect_lane = sim::ReplayKernel::LaneAvx2;
    EXPECT_EQ(resolved("on"), expect_lane);
    EXPECT_EQ(resolved("auto"), expect_lane);
}

} // namespace
