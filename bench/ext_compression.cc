/**
 * @file
 * Extension: frequent-value compression in the data cache itself
 * (the direction of the paper's reference [11]). Compares, at
 * equal physical size: a plain DMC, the DMC + FVC of this paper,
 * and a compressed data cache where two frequent-valued lines
 * share one physical slot.
 *
 * The DMC and DMC+FVC cells resolve through daemon::runCells;
 * the CompressedDataCache has no result-store codec (its extra
 * compression counters don't fit the CellStats record), so it
 * replays directly against the shared trace.
 */

#include <cstdio>

#include "core/compressed_cache.hh"
#include "daemon/client.hh"
#include "fabric/cell.hh"
#include "harness/report.hh"
#include "harness/runner.hh"
#include "harness/trace_repo.hh"
#include "util/strings.hh"
#include "util/table.hh"

int
main()
{
    using namespace fvc;

    harness::banner("Extension: compressed data cache",
                    "Plain DMC vs DMC+FVC vs frequent-value "
                    "compressed cache (8Kb, 32B lines)");
    harness::note("the compressed cache folds the FVC idea into "
                  "the cache arrays: compressible lines cost half "
                  "a slot (cf. reference [11] of the paper)");

    const uint64_t accesses = harness::defaultTraceAccesses();

    util::Table table({"benchmark", "DMC miss %", "+FVC miss %",
                       "compressed miss %", "compressed lines %",
                       "fat writes"});
    for (size_t c = 1; c <= 5; ++c)
        table.alignRight(c);

    cache::CacheConfig dmc;
    dmc.size_bytes = 8 * 1024;
    dmc.line_bytes = 32;
    core::FvcConfig fvc;
    fvc.entries = 256;
    fvc.line_bytes = 32;
    fvc.code_bits = 3;

    const auto benches = workload::fvSpecInt();
    std::vector<fabric::CellSpec> specs;
    for (auto bench : benches) {
        fabric::CellSpec base;
        base.bench = bench;
        base.accesses = accesses;
        base.seed = 86;
        base.dmc = dmc;
        specs.push_back(base);
        fabric::CellSpec with = base;
        with.fvc = fvc;
        with.has_fvc = true;
        specs.push_back(with);
    }
    auto results = daemon::runCells(specs, "compression sweep");

    size_t job = 0;
    for (auto bench : benches) {
        auto profile = workload::specIntProfile(bench);
        const auto &base_slot = results[job++];
        const auto &fvc_slot = results[job++];

        auto trace = harness::sharedTrace(profile, accesses, 86);
        core::CompressedCacheConfig comp_cfg;
        comp_cfg.size_bytes = 8 * 1024;
        comp_cfg.line_bytes = 32;
        comp_cfg.code_bits = 3;
        core::CompressedDataCache comp(
            comp_cfg,
            core::FrequentValueEncoding(trace->frequent_values, 3));
        harness::replay(*trace, comp);

        table.addRow(
            {profile.name,
             base_slot
                 ? util::fixedStr(
                       base_slot->cache.missRatePercent(), 3)
                 : harness::failedCell(),
             fvc_slot ? util::fixedStr(
                            fvc_slot->cache.missRatePercent(), 3)
                      : harness::failedCell(),
             util::fixedStr(comp.stats().missRatePercent(), 3),
             util::fixedStr(
                 100.0 * comp.compressionStats()
                             .averageCompressedFraction(),
                 1),
             util::withCommas(
                 comp.compressionStats().fat_writes)});
    }
    std::printf("%s", table.render().c_str());
    return 0;
}
