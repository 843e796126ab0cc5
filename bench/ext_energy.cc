/**
 * @file
 * Extension: energy study. The paper motivates the FVC through
 * power — reduced miss rates mean reduced off-chip traffic, and
 * off-chip transfers dominate energy. This bench quantifies that:
 * memory-system energy of a DMC, the same DMC + FVC, and a doubled
 * DMC, per benchmark.
 *
 * Three cells per benchmark — base DMC, DMC+FVC, doubled DMC —
 * resolved through daemon::runCells; the energy model runs on
 * the returned counters.
 */

#include <cstdio>

#include "daemon/client.hh"
#include "fabric/cell.hh"
#include "harness/report.hh"
#include "harness/runner.hh"
#include "timing/energy.hh"
#include "util/strings.hh"
#include "util/table.hh"

int
main()
{
    using namespace fvc;

    harness::banner("Extension: energy",
                    "Memory-system energy: DMC vs DMC+FVC vs "
                    "doubled DMC (16Kb base, 32B lines)");
    harness::note("the FVC probe adds a tiny array energy but cuts "
                  "off-chip traffic; the doubled DMC spends more "
                  "energy on every probe of its larger arrays");

    const uint64_t accesses = harness::defaultTraceAccesses();

    cache::CacheConfig dmc;
    dmc.size_bytes = 16 * 1024;
    dmc.line_bytes = 32;
    cache::CacheConfig big = dmc;
    big.size_bytes = 32 * 1024;
    core::FvcConfig fvc;
    fvc.entries = 512;
    fvc.line_bytes = 32;
    fvc.code_bits = 3;

    util::Table table({"benchmark", "DMC mJ", "DMC+FVC mJ",
                       "2xDMC mJ", "FVC saving %",
                       "traffic saving %"});
    for (size_t c = 1; c <= 5; ++c)
        table.alignRight(c);

    const auto benches = workload::fvSpecInt();
    std::vector<fabric::CellSpec> specs;
    for (auto bench : benches) {
        fabric::CellSpec base;
        base.bench = bench;
        base.accesses = accesses;
        base.seed = 82;
        base.dmc = dmc;
        specs.push_back(base);
        fabric::CellSpec with = base;
        with.fvc = fvc;
        with.has_fvc = true;
        specs.push_back(with);
        fabric::CellSpec doubled = base;
        doubled.dmc = big;
        specs.push_back(doubled);
    }
    auto results = daemon::runCells(specs, "energy sweep");

    size_t job = 0;
    for (auto bench : benches) {
        auto profile = workload::specIntProfile(bench);
        const auto &base_slot = results[job++];
        const auto &fvc_slot = results[job++];
        const auto &big_slot = results[job++];
        if (!base_slot || !fvc_slot || !big_slot) {
            table.addRow({profile.name, harness::failedCell(),
                          harness::failedCell(),
                          harness::failedCell(),
                          harness::failedCell(),
                          harness::failedCell()});
            continue;
        }
        auto base_energy =
            timing::systemEnergy(dmc, base_slot->cache);
        auto fvc_energy =
            timing::systemEnergy(fvc_slot->cache, dmc, fvc);
        auto big_energy =
            timing::systemEnergy(big, big_slot->cache);

        double traffic_saving =
            100.0 *
            (static_cast<double>(base_slot->cache.trafficBytes()) -
             static_cast<double>(
                 fvc_slot->cache.trafficBytes())) /
            static_cast<double>(base_slot->cache.trafficBytes());

        table.addRow(
            {profile.name,
             util::fixedStr(base_energy.total_mj(), 3),
             util::fixedStr(fvc_energy.total_mj(), 3),
             util::fixedStr(big_energy.total_mj(), 3),
             util::fixedStr(100.0 *
                                (base_energy.total_nj() -
                                 fvc_energy.total_nj()) /
                                base_energy.total_nj(),
                            1),
             util::fixedStr(traffic_saving, 1)});
    }
    std::printf("%s", table.render().c_str());
    return 0;
}
