/**
 * @file
 * Figure 14: FVC benefit when the main cache is 2-way or 4-way set
 * associative (16 Kb, 8 words/line, 512-entry FVC, top-7 values).
 *
 * Shape to reproduce: for the conflict-dominated benchmarks
 * (m88ksim, perl, li) associativity removes the misses the FVC was
 * removing, so the FVC's benefit collapses; for the
 * capacity-dominated ones (go, gcc, vortex) the benefit survives.
 *
 * Two cells per (benchmark, associativity) pair — bare DMC and
 * DMC+FVC — resolved through daemon::runCells against each
 * benchmark's shared trace.
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

    harness::banner("Figure 14",
                    "FVC with set-associative main caches "
                    "(16Kb, 8 words/line, 512-entry top-7 FVC)");
    harness::note("paper: m88ksim/perl/li benefits shrink sharply "
                  "with associativity (conflict misses); "
                  "go/gcc/vortex benefits persist (capacity "
                  "misses)");

    const uint64_t accesses = harness::defaultTraceAccesses();
    const std::vector<uint32_t> assocs = {1u, 2u, 4u};

    struct Cell
    {
        double base;
        double with_fvc;
    };
    const auto benches = workload::fvSpecInt();
    std::vector<fabric::CellSpec> specs;
    for (auto bench : benches) {
        for (uint32_t assoc : assocs) {
            fabric::CellSpec base;
            base.bench = bench;
            base.accesses = accesses;
            base.seed = 29;
            base.dmc.size_bytes = 16 * 1024;
            base.dmc.line_bytes = 32;
            base.dmc.assoc = assoc;
            specs.push_back(base);
            fabric::CellSpec with = base;
            with.fvc.entries = 512;
            with.fvc.line_bytes = base.dmc.line_bytes;
            with.fvc.code_bits = 3;
            with.has_fvc = true;
            specs.push_back(with);
        }
    }
    auto results = daemon::runCells(specs, "Figure 14 sweep");

    std::vector<std::optional<Cell>> cells;
    for (size_t i = 0; i < results.size(); i += 2) {
        if (!results[i] || !results[i + 1]) {
            cells.push_back(std::nullopt);
            continue;
        }
        Cell cell;
        cell.base = results[i]->cache.missRatePercent();
        cell.with_fvc = results[i + 1]->cache.missRatePercent();
        cells.push_back(cell);
    }

    util::Table table({"benchmark", "assoc", "miss % (no FVC)",
                       "miss % (FVC)", "reduction %"});
    for (size_t c = 1; c <= 4; ++c)
        table.alignRight(c);

    size_t job = 0;
    for (auto bench : benches) {
        auto profile = workload::specIntProfile(bench);
        for (uint32_t assoc : assocs) {
            const auto &slot = cells[job++];
            if (!slot) {
                table.addRow({profile.name,
                              std::to_string(assoc) + "-way",
                              harness::failedCell(),
                              harness::failedCell(),
                              harness::failedCell()});
                continue;
            }
            const Cell &cell = *slot;
            table.addRow({profile.name,
                          std::to_string(assoc) + "-way",
                          util::fixedStr(cell.base, 3),
                          util::fixedStr(cell.with_fvc, 3),
                          util::fixedStr(
                              100.0 * (cell.base - cell.with_fvc) /
                                  (cell.base > 0.0 ? cell.base : 1.0),
                              1)});
        }
        table.addSeparator();
    }
    table.exportCsv("fig14_set_assoc");
    std::printf("%s", table.render().c_str());
    return 0;
}
