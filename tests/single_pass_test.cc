/**
 * @file
 * Parity suite for the single-pass sweep engine: the
 * MultiConfigSimulator and the bounded TraceRepository must be
 * bit-for-bit interchangeable with the per-cell engine.
 */

#include <cstdlib>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "cache/cache_system.hh"
#include "harness/runner.hh"
#include "harness/trace_repo.hh"
#include "sim/batch_encoder.hh"
#include "sim/multi_config.hh"
#include "sim/simd_dispatch.hh"
#include "util/random.hh"
#include "util/strings.hh"
#include "workload/profile.hh"

#include "env_guard.hh"

namespace {

using namespace fvc;
using test::ScopedEnv;

void
expectStatsEqual(const cache::CacheStats &want,
                 const cache::CacheStats &got,
                 const std::string &what)
{
    EXPECT_EQ(want.read_hits, got.read_hits) << what;
    EXPECT_EQ(want.read_misses, got.read_misses) << what;
    EXPECT_EQ(want.write_hits, got.write_hits) << what;
    EXPECT_EQ(want.write_misses, got.write_misses) << what;
    EXPECT_EQ(want.fills, got.fills) << what;
    EXPECT_EQ(want.writebacks, got.writebacks) << what;
    EXPECT_EQ(want.fetch_bytes, got.fetch_bytes) << what;
    EXPECT_EQ(want.writeback_bytes, got.writeback_bytes) << what;
}

// Bare-DMC lanes keep tags only, yet must reproduce every
// CacheStats counter of the full data-carrying DmcSystem across
// geometries, associativities, and all three replacement policies
// (Random exercises the shared default RNG seed), on every lane
// kernel this machine can run.
TEST(SinglePass, BareDmcLanesMatchDmcSystem)
{
    auto trace = harness::prepareTrace(
        workload::specIntProfile(workload::SpecInt::Gcc126), 40000,
        5);

    const std::vector<uint32_t> sizes = {4096, 8192, 16384, 32768};
    const std::vector<uint32_t> line_sizes = {16, 32, 64};
    const std::vector<uint32_t> assocs = {1, 2, 4};
    const std::vector<cache::Replacement> policies = {
        cache::Replacement::LRU, cache::Replacement::FIFO,
        cache::Replacement::Random};

    util::Rng rng(2024);
    std::vector<cache::CacheConfig> configs;
    for (int i = 0; i < 16; ++i) {
        cache::CacheConfig config;
        config.size_bytes = sizes[rng.below(sizes.size())];
        config.line_bytes = line_sizes[rng.below(line_sizes.size())];
        config.assoc = assocs[rng.below(assocs.size())];
        config.replacement = policies[rng.below(policies.size())];
        configs.push_back(config);
    }

    std::vector<sim::ReplayKernel> kernels = {
        sim::ReplayKernel::LaneScalar};
    if (sim::laneIsaAvailable(sim::LaneIsa::Avx2))
        kernels.push_back(sim::ReplayKernel::LaneAvx2);
    if (sim::laneIsaAvailable(sim::LaneIsa::Avx512))
        kernels.push_back(sim::ReplayKernel::LaneAvx512);

    for (sim::ReplayKernel kernel : kernels) {
        sim::MultiConfigSimulator engine(trace.columns,
                                         trace.initial_image,
                                         trace.frequent_values);
        engine.forceKernel(kernel);
        for (const auto &config : configs)
            engine.addDmc(config);
        engine.run();

        for (size_t i = 0; i < configs.size(); ++i) {
            cache::DmcSystem reference(configs[i]);
            harness::replay(trace, reference);
            expectStatsEqual(reference.stats(), engine.stats(i),
                             std::string(sim::replayKernelName(kernel)) +
                                 " " + configs[i].describe());
        }
    }
}

// The single-pass engine must agree with the per-cell engine on
// every SPECint95 profile for a randomized grid of (DMC size,
// FVC entries, code bits) cells: raw counters, derived rates, the
// rendered table strings, and the FVC-side statistics.
TEST(SinglePass, MultiConfigMatchesPerCellOnAllProfiles)
{
    uint64_t seed = 11;
    for (auto bench : workload::allSpecInt()) {
        auto profile = workload::specIntProfile(bench);
        auto trace = harness::prepareTrace(profile, 25000, seed);

        util::Rng rng(seed * 7919);
        const std::vector<uint32_t> dmc_kbs = {4, 8, 16, 32};
        const std::vector<uint32_t> entry_counts = {64, 128, 256,
                                                    512, 1024};

        struct FvcCell
        {
            cache::CacheConfig dmc;
            core::FvcConfig fvc;
        };
        const std::vector<uint32_t> assocs = {1, 2, 4};
        const std::vector<cache::Replacement> policies = {
            cache::Replacement::LRU, cache::Replacement::FIFO,
            cache::Replacement::Random};

        cache::CacheConfig bare;
        bare.size_bytes = dmc_kbs[rng.below(dmc_kbs.size())] * 1024;
        bare.line_bytes = 32;
        std::vector<FvcCell> fvc_cells;
        for (int i = 0; i < 3; ++i) {
            FvcCell cell;
            cell.dmc.size_bytes =
                dmc_kbs[rng.below(dmc_kbs.size())] * 1024;
            cell.dmc.line_bytes = 32;
            // Exercise the count-only model's victim-selection and
            // LRU/FIFO/Random stamp parity, not just direct-mapped.
            cell.dmc.assoc = assocs[rng.below(assocs.size())];
            cell.dmc.replacement =
                policies[rng.below(policies.size())];
            cell.fvc.entries =
                entry_counts[rng.below(entry_counts.size())];
            cell.fvc.line_bytes = 32;
            cell.fvc.code_bits =
                1 + static_cast<unsigned>(rng.below(3));
            cell.fvc.assoc = assocs[rng.below(assocs.size())];
            fvc_cells.push_back(cell);
        }

        sim::MultiConfigSimulator engine(trace.columns,
                                         trace.initial_image,
                                         trace.frequent_values);
        engine.addDmc(bare);
        for (const auto &cell : fvc_cells)
            engine.addDmcFvc(cell.dmc, cell.fvc);
        engine.run();

        // Per-cell reference runs.
        cache::DmcSystem bare_ref(bare);
        harness::replay(trace, bare_ref);
        expectStatsEqual(bare_ref.stats(), engine.stats(0),
                         profile.name + " bare");
        EXPECT_EQ(
            util::fixedStr(bare_ref.stats().missRatePercent(), 3),
            util::fixedStr(engine.missRatePercent(0), 3));

        for (size_t i = 0; i < fvc_cells.size(); ++i) {
            auto ref = harness::runDmcFvc(trace, fvc_cells[i].dmc,
                                          fvc_cells[i].fvc);
            const size_t cell = 1 + i;
            const std::string what =
                profile.name + " fvc cell " + std::to_string(i);
            expectStatsEqual(ref->stats(), engine.stats(cell), what);
            EXPECT_EQ(ref->stats().hits(), engine.stats(cell).hits())
                << what;
            EXPECT_EQ(
                util::fixedStr(ref->stats().missRatePercent(), 3),
                util::fixedStr(engine.missRatePercent(cell), 3))
                << what;

            const core::FvcStats *fvc = engine.fvcStats(cell);
            ASSERT_NE(fvc, nullptr) << what;
            const core::FvcStats &want = ref->fvcStats();
            EXPECT_EQ(want.fvc_read_hits, fvc->fvc_read_hits)
                << what;
            EXPECT_EQ(want.fvc_write_hits, fvc->fvc_write_hits)
                << what;
            EXPECT_EQ(want.partial_misses, fvc->partial_misses)
                << what;
            EXPECT_EQ(want.write_allocations,
                      fvc->write_allocations)
                << what;
            EXPECT_EQ(want.insertions, fvc->insertions) << what;
            EXPECT_EQ(want.insertions_skipped,
                      fvc->insertions_skipped)
                << what;
            EXPECT_EQ(want.fvc_writebacks, fvc->fvc_writebacks)
                << what;
            // Occupancy is sampled FVC state: bit-identical doubles
            // prove the present-bit masks track the code array.
            EXPECT_EQ(want.occupancy_samples,
                      fvc->occupancy_samples)
                << what;
            EXPECT_EQ(want.occupancy_sum, fvc->occupancy_sum)
                << what;
        }
        EXPECT_EQ(engine.fvcStats(0), nullptr);
        ++seed;
    }
}

// BatchEncoder must agree code-for-code with the scalar encoder.
TEST(SinglePass, BatchEncoderMatchesScalarEncoding)
{
    auto trace = harness::prepareTrace(
        workload::specIntProfile(workload::SpecInt::Vortex147),
        20000, 3);
    for (unsigned bits : {1u, 2u, 3u}) {
        core::FrequentValueEncoding enc(trace.frequent_values, bits);
        sim::BatchEncoder batch(enc);
        const auto &chunk = trace.columns.chunks().front();
        std::vector<core::Code> codes(chunk.size());
        batch.encode(chunk.value.data(), chunk.size(), codes.data());
        uint32_t frequent = 0;
        for (size_t i = 0; i < chunk.size(); ++i) {
            EXPECT_EQ(codes[i], enc.encode(chunk.value[i]))
                << "bits=" << bits << " i=" << i;
            if (enc.isFrequent(chunk.value[i]))
                ++frequent;
        }
        EXPECT_EQ(frequent, batch.frequentCount(chunk.value.data(),
                                                chunk.size()));
        uint64_t mask =
            batch.frequentMask(chunk.value.data(),
                               std::min<size_t>(64, chunk.size()));
        for (size_t i = 0;
             i < std::min<size_t>(64, chunk.size()); ++i) {
            EXPECT_EQ((mask >> i) & 1u,
                      enc.isFrequent(chunk.value[i]) ? 1u : 0u);
        }
    }
}

// A trace evicted by the FVC_TRACE_CACHE_MB bound must regenerate
// byte-identically on the next request.
TEST(SinglePass, TraceRepoEvictionRegeneratesIdentically)
{
    auto go = workload::specIntProfile(workload::SpecInt::Go099);
    auto li = workload::specIntProfile(workload::SpecInt::Li130);

    // Each ~50k-access trace is a few MB; a 1 MB cap forces the
    // second insertion to evict the first.
    ScopedEnv env("FVC_TRACE_CACHE_MB", "1");
    harness::TraceRepository repo;

    auto first = repo.get(go, 50000, 9);
    ASSERT_GT(harness::TraceRepository::traceBytes(*first),
              size_t{1024 * 1024});
    EXPECT_EQ(repo.size(), 1u);

    auto other = repo.get(li, 50000, 9);
    EXPECT_EQ(repo.evictions(), 1u);
    EXPECT_EQ(repo.size(), 1u);

    // The evicted TracePtr stays valid, and a regeneration is a new
    // object with byte-identical contents.
    auto second = repo.get(go, 50000, 9);
    EXPECT_NE(first.get(), second.get());
    EXPECT_EQ(first->columns.materializeRecords(),
              second->columns.materializeRecords());
    EXPECT_EQ(first->frequent_values, second->frequent_values);
    EXPECT_EQ(first->instructions, second->instructions);
    EXPECT_EQ(first->columns.size(), second->columns.size());
    EXPECT_TRUE(memmodel::FunctionalMemory::sameInterestingContents(
        first->initial_image, second->initial_image));
    EXPECT_TRUE(memmodel::FunctionalMemory::sameInterestingContents(
        first->final_image, second->final_image));

    // With no cap, nothing is evicted.
    ScopedEnv unbounded("FVC_TRACE_CACHE_MB", nullptr);
    harness::TraceRepository free_repo;
    free_repo.get(go, 50000, 9);
    free_repo.get(li, 50000, 9);
    EXPECT_EQ(free_repo.size(), 2u);
    EXPECT_EQ(free_repo.evictions(), 0u);
}

} // namespace
