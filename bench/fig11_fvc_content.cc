/**
 * @file
 * Figure 11: effectiveness of the data compression — the average
 * percentage of frequent values in valid FVC lines (sampled during
 * execution) and the resulting effective storage advantage over an
 * uncompressed DMC.
 */

#include <cstdio>

#include "core/size_model.hh"
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

    harness::banner("Figure 11",
                    "Frequent value content of the FVC "
                    "(DMC 16Kb/8wpl, FVC 512 entries, 7 values)");
    harness::note("paper: most programs keep >40% of FVC slots "
                  "frequent => the FVC stores data in ~4.3x less "
                  "space than a DMC would");

    const uint64_t accesses = harness::defaultTraceAccesses();

    cache::CacheConfig dmc;
    dmc.size_bytes = 16 * 1024;
    dmc.line_bytes = 32;
    core::FvcConfig fvc;
    fvc.entries = 512;
    fvc.line_bytes = 32;
    fvc.code_bits = 3;

    util::Table table({"benchmark", "frequent content %",
                       "effective compression x",
                       "occupancy samples"});
    for (size_t c = 1; c <= 3; ++c)
        table.alignRight(c);

    std::vector<fabric::CellSpec> specs;
    for (auto bench : workload::fvSpecInt()) {
        fabric::CellSpec cell;
        cell.bench = bench;
        cell.accesses = accesses;
        cell.seed = 71;
        cell.dmc = dmc;
        cell.fvc = fvc;
        cell.has_fvc = true;
        specs.push_back(cell);
    }
    auto results = daemon::runCells(specs, "Figure 11 sweep");

    size_t job = 0;
    for (auto bench : workload::fvSpecInt()) {
        auto profile = workload::specIntProfile(bench);
        const auto &slot = results[job++];
        if (!slot) {
            table.addRow({profile.name, harness::failedCell(),
                          harness::failedCell(),
                          harness::failedCell()});
            continue;
        }
        double content = slot->fvc.averageFrequentContent();
        table.addRow(
            {profile.name, util::fixedStr(100.0 * content, 1),
             util::fixedStr(core::compressionFactor(fvc, content),
                            2),
             util::withCommas(slot->fvc.occupancy_samples)});
    }
    table.exportCsv("fig11_fvc_content");
    std::printf("%s", table.render().c_str());
    std::printf("(compression = line bytes / code bytes x frequent "
                "content; the paper quotes 32/3 x 0.40 = 4.27)\n");
    return 0;
}
