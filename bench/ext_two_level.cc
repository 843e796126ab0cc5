/**
 * @file
 * Extension: the FVC in a two-level world. An L2 absorbs most of
 * the off-chip cost of L1 capacity misses — how does that compare
 * with, and compose with, an FVC? (The FVC still removes L1
 * conflict misses outright, which even a hit in a fast L2 cannot.)
 *
 * Three cells per benchmark — bare L1, L1+FVC, L1+L2 — resolved
 * through daemon::runCells.
 */

#include <cstdio>

#include "daemon/client.hh"
#include "fabric/cell.hh"
#include "harness/report.hh"
#include "harness/runner.hh"
#include "util/strings.hh"
#include "util/table.hh"

int
main()
{
    using namespace fvc;

    harness::banner("Extension: two-level hierarchy",
                    "L1 16Kb DMC alone vs +FVC vs +128Kb L2 "
                    "(misses and off-chip traffic)");
    harness::note("an FVC hit removes the L1 miss itself; an L2 "
                  "hit only removes the off-chip fetch — the two "
                  "attack different costs");

    const uint64_t accesses = harness::defaultTraceAccesses();

    util::Table table({"benchmark", "L1 miss %", "+FVC miss %",
                       "L1+L2 miss %", "L1 traffic KB",
                       "+FVC traffic KB", "L1+L2 traffic KB"});
    for (size_t c = 1; c <= 6; ++c)
        table.alignRight(c);

    cache::CacheConfig l1;
    l1.size_bytes = 16 * 1024;
    l1.line_bytes = 32;
    cache::CacheConfig l2;
    l2.size_bytes = 128 * 1024;
    l2.line_bytes = 32;
    l2.assoc = 4;
    core::FvcConfig fvc;
    fvc.entries = 512;
    fvc.line_bytes = 32;
    fvc.code_bits = 3;

    const auto benches = workload::fvSpecInt();
    std::vector<fabric::CellSpec> specs;
    for (auto bench : benches) {
        fabric::CellSpec base;
        base.bench = bench;
        base.accesses = accesses;
        base.seed = 87;
        base.dmc = l1;
        specs.push_back(base);
        fabric::CellSpec with_fvc = base;
        with_fvc.fvc = fvc;
        with_fvc.has_fvc = true;
        specs.push_back(with_fvc);
        fabric::CellSpec with_l2 = base;
        with_l2.l2 = l2;
        with_l2.has_l2 = true;
        specs.push_back(with_l2);
    }
    auto results = daemon::runCells(specs, "two-level sweep");

    size_t job = 0;
    for (auto bench : benches) {
        auto profile = workload::specIntProfile(bench);
        const auto &plain = results[job++];
        const auto &fvc_slot = results[job++];
        const auto &two = results[job++];
        if (!plain || !fvc_slot || !two) {
            table.addRow({profile.name, harness::failedCell(),
                          harness::failedCell(),
                          harness::failedCell(),
                          harness::failedCell(),
                          harness::failedCell(),
                          harness::failedCell()});
            continue;
        }
        auto kb = [](uint64_t bytes) {
            return util::withCommas(bytes / 1024);
        };
        table.addRow(
            {profile.name,
             util::fixedStr(plain->cache.missRatePercent(), 3),
             util::fixedStr(fvc_slot->cache.missRatePercent(), 3),
             util::fixedStr(two->cache.missRatePercent(), 3),
             kb(plain->cache.trafficBytes()),
             kb(fvc_slot->cache.trafficBytes()),
             kb(two->cache.trafficBytes())});
    }
    std::printf("%s", table.render().c_str());
    return 0;
}
