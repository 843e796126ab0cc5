/**
 * @file
 * Extension: the FVC on SPECfp95. The paper characterizes the FP
 * suite's frequent value locality (Figure 2) but runs its cache
 * experiments on the integer suite only; this bench closes that
 * gap with the modelled FP workloads.
 *
 * Two cells per FP benchmark — bare DMC and DMC+FVC — resolved
 * through daemon::runCells over each benchmark's shared trace.
 */

#include <algorithm>
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

    harness::banner("Extension: SPECfp95",
                    "DMC vs DMC + 512-entry top-7 FVC on the "
                    "modelled FP suite (16Kb, 32B lines)");
    harness::note("FP data is dominated by 0.0/1.0 bit patterns "
                  "(Figure 2), so the FVC applies directly");

    const uint64_t accesses = harness::defaultTraceAccesses() / 2;

    cache::CacheConfig dmc;
    dmc.size_bytes = 16 * 1024;
    dmc.line_bytes = 32;
    core::FvcConfig fvc;
    fvc.entries = 512;
    fvc.line_bytes = 32;
    fvc.code_bits = 3;

    struct Cell
    {
        double base;
        double with_fvc;
        double traffic_saving;
    };
    const auto names = workload::allSpecFpNames();
    std::vector<fabric::CellSpec> specs;
    for (const auto &name : names) {
        fabric::CellSpec base;
        base.fp_name = name;
        base.accesses = accesses;
        base.seed = 89;
        base.dmc = dmc;
        specs.push_back(base);
        fabric::CellSpec with = base;
        with.fvc = fvc;
        with.has_fvc = true;
        specs.push_back(with);
    }
    auto results = daemon::runCells(specs, "SPECfp95 sweep");

    std::vector<std::optional<Cell>> cells;
    for (size_t i = 0; i < results.size(); i += 2) {
        if (!results[i] || !results[i + 1]) {
            cells.push_back(std::nullopt);
            continue;
        }
        Cell cell;
        cell.base = results[i]->cache.missRatePercent();
        cell.with_fvc = results[i + 1]->cache.missRatePercent();
        cell.traffic_saving =
            100.0 *
            (static_cast<double>(results[i]->cache.trafficBytes()) -
             static_cast<double>(
                 results[i + 1]->cache.trafficBytes())) /
            static_cast<double>(std::max<uint64_t>(
                results[i]->cache.trafficBytes(), 1));
        cells.push_back(cell);
    }

    util::Table table({"benchmark", "DMC miss %", "+FVC miss %",
                       "reduction %", "traffic saving %"});
    for (size_t c = 1; c <= 4; ++c)
        table.alignRight(c);

    size_t job = 0;
    for (const auto &name : names) {
        const auto &slot = cells[job++];
        if (!slot) {
            table.addRow({name, harness::failedCell(),
                          harness::failedCell(),
                          harness::failedCell(),
                          harness::failedCell()});
            continue;
        }
        const Cell &cell = *slot;
        table.addRow(
            {name, util::fixedStr(cell.base, 3),
             util::fixedStr(cell.with_fvc, 3),
             util::fixedStr(100.0 * (cell.base - cell.with_fvc) /
                                (cell.base > 0.0 ? cell.base : 1.0),
                            1),
             util::fixedStr(cell.traffic_saving, 1)});
    }
    std::printf("%s", table.render().c_str());
    table.exportCsv("ext_fp_suite");
    return 0;
}
