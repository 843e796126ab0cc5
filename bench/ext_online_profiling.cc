/**
 * @file
 * Extension: online vs offline value identification. Compares the
 * paper's offline-profiled FVC against the AdaptiveDmcFvcSystem,
 * which learns its value set from a bounded sketch during a warmup
 * window (and can periodically retrain).
 *
 * The bare-DMC and offline-FVC cells resolve through
 * daemon::runCells; the adaptive systems carry extra training
 * state with no result-store codec, so they replay directly
 * against the shared trace.
 */

#include <cstdio>

#include "core/adaptive_system.hh"
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

    harness::banner("Extension: online profiling",
                    "Offline-profiled vs online-trained FVC "
                    "(16Kb DMC, 512-entry top-7 FVC)");
    harness::note("Table 3 shows the top values stabilize early, "
                  "so a short warmup should recover nearly the "
                  "whole offline benefit");

    const uint64_t accesses = harness::defaultTraceAccesses();

    cache::CacheConfig dmc;
    dmc.size_bytes = 16 * 1024;
    dmc.line_bytes = 32;
    core::FvcConfig fvc;
    fvc.entries = 512;
    fvc.line_bytes = 32;
    fvc.code_bits = 3;

    util::Table table({"benchmark", "DMC miss %",
                       "offline red %", "online red %",
                       "online+retrain red %", "trainings"});
    for (size_t c = 1; c <= 5; ++c)
        table.alignRight(c);

    const auto benches = workload::fvSpecInt();
    std::vector<fabric::CellSpec> specs;
    for (auto bench : benches) {
        fabric::CellSpec base;
        base.bench = bench;
        base.accesses = accesses;
        base.seed = 84;
        base.dmc = dmc;
        specs.push_back(base);
        fabric::CellSpec offline = base;
        offline.fvc = fvc;
        offline.has_fvc = true;
        specs.push_back(offline);
    }
    auto results = daemon::runCells(specs, "online profiling sweep");

    size_t job = 0;
    for (auto bench : benches) {
        auto profile = workload::specIntProfile(bench);
        const auto &base_slot = results[job++];
        const auto &offline_slot = results[job++];

        auto trace = harness::sharedTrace(profile, accesses, 84);

        core::AdaptiveTrainPolicy once;
        once.warmup_accesses = accesses / 20;
        core::AdaptiveDmcFvcSystem online(dmc, fvc, once);
        harness::replay(*trace, online);

        core::AdaptiveTrainPolicy periodic = once;
        periodic.retrain_interval = accesses / 4;
        core::AdaptiveDmcFvcSystem retraining(dmc, fvc, periodic);
        harness::replay(*trace, retraining);

        if (!base_slot || !offline_slot) {
            table.addRow({profile.name, harness::failedCell(),
                          harness::failedCell(),
                          harness::failedCell(),
                          harness::failedCell(),
                          harness::failedCell()});
            continue;
        }
        double base = base_slot->cache.missRatePercent();
        auto reduction = [base](double with) {
            return util::fixedStr(
                100.0 * (base - with) / (base > 0.0 ? base : 1.0),
                1);
        };
        table.addRow(
            {profile.name, util::fixedStr(base, 3),
             reduction(offline_slot->cache.missRatePercent()),
             reduction(online.stats().missRatePercent()),
             reduction(retraining.stats().missRatePercent()),
             std::to_string(
                 retraining.adaptiveStats().trainings)});
    }
    std::printf("%s", table.render().c_str());
    return 0;
}
