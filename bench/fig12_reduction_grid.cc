/**
 * @file
 * Figure 12: percentage reduction in miss rate for a 512-entry FVC
 * exploiting the top 1, 3, or 7 frequently accessed values, across
 * the 12 DMC configurations whose access time is not faster than
 * the FVC's.
 *
 * All (benchmark x DMC config x FVC width) cells resolve through
 * daemon::runCells: warm fingerprints come from the store,
 * novel cells share each benchmark's trace in one grouped replay.
 * Results print in submission order, so the tables are identical
 * for any FVC_JOBS.
 */

#include <cstdio>

#include "daemon/client.hh"
#include "fabric/cell.hh"
#include "harness/report.hh"
#include "harness/runner.hh"
#include "timing/access_time.hh"
#include "util/strings.hh"
#include "util/table.hh"

int
main()
{
    using namespace fvc;

    harness::banner("Figure 12",
                    "% reduction in miss rate: DMC vs DMC + "
                    "512-entry FVC (top 1 vs 3 vs 7 values)");
    harness::note("paper: reductions range 1-68%; 1->3 values is a "
                  "big step, 3->7 a smaller one");

    const uint64_t accesses = harness::defaultTraceAccesses();

    // The 12 DMC configurations: sizes x line sizes whose access
    // time >= the 512-entry FVC's (cf. Figure 9).
    struct Config
    {
        uint32_t kb;
        uint32_t line;
    };
    std::vector<Config> configs;
    for (uint32_t kb : {8u, 16u, 32u, 64u}) {
        for (uint32_t line : {16u, 32u, 64u}) {
            configs.push_back({kb, line});
        }
    }

    // Four cells per (benchmark, DMC config): the bare DMC and the
    // three FVC widths, flat in submission order.
    struct Cell
    {
        double base;
        double with_fvc[3];
    };
    const auto benches = workload::fvSpecInt();
    std::vector<fabric::CellSpec> specs;
    for (auto bench : benches) {
        for (const auto &config : configs) {
            fabric::CellSpec base;
            base.bench = bench;
            base.accesses = accesses;
            base.seed = 72;
            base.dmc.size_bytes = config.kb * 1024;
            base.dmc.line_bytes = config.line;
            specs.push_back(base);
            for (unsigned bits : {1u, 2u, 3u}) {
                fabric::CellSpec cell = base;
                cell.fvc.entries = 512;
                cell.fvc.line_bytes = config.line;
                cell.fvc.code_bits = bits;
                cell.has_fvc = true;
                specs.push_back(cell);
            }
        }
    }
    auto results = daemon::runCells(specs, "Figure 12 grid");

    std::vector<std::optional<Cell>> cells;
    for (size_t i = 0; i < results.size(); i += 4) {
        bool ok = results[i] && results[i + 1] && results[i + 2] &&
                  results[i + 3];
        if (!ok) {
            cells.push_back(std::nullopt);
            continue;
        }
        Cell cell;
        cell.base = results[i]->cache.missRatePercent();
        for (unsigned bits : {1u, 2u, 3u}) {
            cell.with_fvc[bits - 1] =
                results[i + bits]->cache.missRatePercent();
        }
        cells.push_back(cell);
    }

    size_t job = 0;
    for (auto bench : benches) {
        auto profile = workload::specIntProfile(bench);
        harness::section(profile.name);
        util::Table table({"DMC", "miss %", "1 value %",
                           "3 values %", "7 values %"});
        for (size_t c = 1; c <= 4; ++c)
            table.alignRight(c);

        for (const auto &config : configs) {
            const auto &slot = cells[job++];
            std::vector<std::string> row = {
                util::sizeStr(config.kb * 1024) + "/" +
                std::to_string(config.line) + "B"};
            if (!slot) {
                for (int i = 0; i < 4; ++i)
                    row.push_back(harness::failedCell());
                table.addRow(row);
                continue;
            }
            const Cell &cell = *slot;
            row.push_back(util::fixedStr(cell.base, 3));
            for (unsigned bits : {1u, 2u, 3u}) {
                row.push_back(util::fixedStr(
                    100.0 * (cell.base - cell.with_fvc[bits - 1]) /
                        (cell.base > 0.0 ? cell.base : 1.0),
                    1));
            }
            table.addRow(row);
        }
        table.exportCsv("fig12_reduction_grid_" + profile.name);
        std::printf("%s", table.render().c_str());
    }
    return 0;
}
