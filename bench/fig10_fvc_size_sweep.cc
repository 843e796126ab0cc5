/**
 * @file
 * Figure 10: percentage reduction in miss rate as the FVC grows
 * from 64 to 4096 entries. DMC fixed at 16 Kb with 8-word (32-byte)
 * lines; the FVC exploits the top 7 frequently accessed values
 * (3-bit codes).
 *
 * One cell per (benchmark, FVC size) plus one bare-DMC cell per
 * benchmark, resolved through daemon::runCells (warm store
 * hits skip the engine; novel cells share each benchmark's trace).
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

    harness::banner("Figure 10",
                    "Miss rate reduction with FVC size "
                    "(DMC 16Kb, 8 words/line, top-7 values)");
    harness::note("paper: m88ksim/perl saturate by 64 entries; "
                  "go/gcc/li/vortex improve steadily with size; "
                  "reductions range ~10% (li) to >50% (m88ksim)");

    const uint64_t accesses = harness::defaultTraceAccesses();
    const std::vector<uint32_t> entry_counts = {64,  128,  256, 512,
                                                1024, 2048, 4096};

    cache::CacheConfig dmc;
    dmc.size_bytes = 16 * 1024;
    dmc.line_bytes = 32;

    std::vector<std::string> headers = {"benchmark", "DMC miss %"};
    for (uint32_t n : entry_counts)
        headers.push_back(std::to_string(n));
    util::Table table(headers);
    for (size_t c = 1; c < headers.size(); ++c)
        table.alignRight(c);

    // Cell order per benchmark: the bare DMC first, then the entry
    // counts. The repository groups cells sharing a trace into one
    // single-pass replay (or serves them warm from the store).
    const auto benches = workload::fvSpecInt();
    std::vector<fabric::CellSpec> specs;
    for (auto bench : benches) {
        fabric::CellSpec base;
        base.bench = bench;
        base.accesses = accesses;
        base.seed = 17;
        base.dmc = dmc;
        specs.push_back(base);
        for (uint32_t entries : entry_counts) {
            fabric::CellSpec cell = base;
            cell.fvc.entries = entries;
            cell.fvc.line_bytes = dmc.line_bytes;
            cell.fvc.code_bits = 3;
            cell.has_fvc = true;
            specs.push_back(cell);
        }
    }
    auto results = daemon::runCells(specs, "Figure 10 sweep");
    std::vector<std::optional<double>> rates;
    for (const auto &slot : results) {
        rates.push_back(
            slot ? std::optional(slot->cache.missRatePercent())
                 : std::nullopt);
    }

    size_t job = 0;
    for (auto bench : benches) {
        auto profile = workload::specIntProfile(bench);
        auto base = rates[job++];
        std::vector<std::string> row = {
            profile.name, base ? util::fixedStr(*base, 3)
                               : harness::failedCell()};
        for (size_t i = 0; i < entry_counts.size(); ++i) {
            auto with = rates[job++];
            if (!base || !with) {
                row.push_back(harness::failedCell());
                continue;
            }
            double reduction = 100.0 * (*base - *with) /
                               (*base > 0.0 ? *base : 1.0);
            row.push_back(util::fixedStr(reduction, 1));
        }
        table.addRow(row);
    }
    table.exportCsv("fig10_fvc_size_sweep");
    std::printf("%s", table.render().c_str());
    std::printf("(columns: %% miss-rate reduction at the given FVC "
                "entry count)\n");
    return 0;
}
