/**
 * @file
 * Extension: write-back vs write-through traffic. The paper
 * restricts itself to write-back caches "because write-through
 * caches are known to generate much higher levels of traffic";
 * this bench measures that premise on the modelled workloads.
 *
 * Two cells per benchmark — write-back and write-through — resolved
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

    harness::banner("Extension: write policy",
                    "Write-back vs write-through traffic "
                    "(16Kb DMC, 32B lines)");
    harness::note("premise check for the paper's write-back-only "
                  "evaluation");

    const uint64_t accesses = harness::defaultTraceAccesses();

    util::Table table({"benchmark", "WB traffic B", "WT traffic B",
                       "WT/WB x", "WB miss %", "WT miss %"});
    for (size_t c = 1; c <= 5; ++c)
        table.alignRight(c);

    const auto benches = workload::allSpecInt();
    std::vector<fabric::CellSpec> specs;
    for (auto bench : benches) {
        fabric::CellSpec wb;
        wb.bench = bench;
        wb.accesses = accesses;
        wb.seed = 83;
        wb.dmc.size_bytes = 16 * 1024;
        wb.dmc.line_bytes = 32;
        specs.push_back(wb);
        fabric::CellSpec wt = wb;
        wt.dmc.write_policy = cache::WritePolicy::WriteThrough;
        specs.push_back(wt);
    }
    auto results = daemon::runCells(specs, "write policy sweep");

    size_t job = 0;
    for (auto bench : benches) {
        auto profile = workload::specIntProfile(bench);
        const auto &wb_slot = results[job++];
        const auto &wt_slot = results[job++];
        if (!wb_slot || !wt_slot) {
            table.addRow({profile.name, harness::failedCell(),
                          harness::failedCell(),
                          harness::failedCell(),
                          harness::failedCell(),
                          harness::failedCell()});
            continue;
        }
        double ratio =
            static_cast<double>(wt_slot->cache.trafficBytes()) /
            static_cast<double>(std::max<uint64_t>(
                wb_slot->cache.trafficBytes(), 1));
        table.addRow(
            {profile.name,
             util::withCommas(wb_slot->cache.trafficBytes()),
             util::withCommas(wt_slot->cache.trafficBytes()),
             util::fixedStr(ratio, 2),
             util::fixedStr(wb_slot->cache.missRatePercent(), 3),
             util::fixedStr(wt_slot->cache.missRatePercent(), 3)});
    }
    std::printf("%s", table.render().c_str());
    return 0;
}
