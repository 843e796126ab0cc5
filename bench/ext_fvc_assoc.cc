/**
 * @file
 * Extension: FVC associativity ablation. The paper's FVC is direct
 * mapped (that is what makes it faster than a fully-associative
 * victim cache). How much is left on the table? Sweep the FVC's
 * own associativity at fixed entry count.
 *
 * One cell per (benchmark, FVC associativity) plus a bare-DMC cell
 * per benchmark, resolved through daemon::runCells over the
 * shared per-benchmark trace.
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

    harness::banner("Extension: FVC associativity",
                    "Direct-mapped vs set-associative FVC "
                    "(16Kb DMC, 512 entries, top-7 values)");
    harness::note("columns: % miss-rate reduction vs bare DMC, and "
                  "the model's FVC access time per configuration");

    const uint64_t accesses = harness::defaultTraceAccesses();
    const std::vector<uint32_t> assocs = {1u, 2u, 4u};

    cache::CacheConfig dmc;
    dmc.size_bytes = 16 * 1024;
    dmc.line_bytes = 32;

    // Cell 0 per benchmark: bare DMC; cells 1..3: the FVC assocs.
    const auto benches = workload::fvSpecInt();
    std::vector<fabric::CellSpec> specs;
    for (auto bench : benches) {
        fabric::CellSpec base;
        base.bench = bench;
        base.accesses = accesses;
        base.seed = 88;
        base.dmc = dmc;
        specs.push_back(base);
        for (uint32_t assoc : assocs) {
            fabric::CellSpec cell = base;
            cell.fvc.entries = 512;
            cell.fvc.line_bytes = 32;
            cell.fvc.code_bits = 3;
            cell.fvc.assoc = assoc;
            cell.has_fvc = true;
            specs.push_back(cell);
        }
    }
    auto results = daemon::runCells(specs, "FVC associativity sweep");
    std::vector<std::optional<double>> rates;
    for (const auto &slot : results) {
        rates.push_back(
            slot ? std::optional(slot->cache.missRatePercent())
                 : std::nullopt);
    }

    util::Table table({"benchmark", "DMC miss %", "1-way red %",
                       "2-way red %", "4-way red %"});
    for (size_t c = 1; c <= 4; ++c)
        table.alignRight(c);

    size_t job = 0;
    for (auto bench : benches) {
        auto profile = workload::specIntProfile(bench);
        auto base = rates[job++];
        std::vector<std::string> row = {
            profile.name, base ? util::fixedStr(*base, 3)
                               : harness::failedCell()};
        for (size_t i = 0; i < assocs.size(); ++i) {
            auto with = rates[job++];
            if (!base || !with) {
                row.push_back(harness::failedCell());
                continue;
            }
            row.push_back(
                util::fixedStr(100.0 * (*base - *with) /
                                   (*base > 0.0 ? *base : 1.0),
                               1));
        }
        table.addRow(row);
    }
    std::printf("%s", table.render().c_str());
    table.exportCsv("ext_fvc_assoc");

    harness::section("access-time cost of FVC associativity");
    util::Table timing({"FVC assoc", "access ns"});
    timing.alignRight(1);
    for (uint32_t assoc : assocs) {
        core::FvcConfig fvc;
        fvc.entries = 512;
        fvc.line_bytes = 32;
        fvc.code_bits = 3;
        fvc.assoc = assoc;
        timing.addRow({std::to_string(assoc) + "-way",
                       util::fixedStr(
                           timing::fvcAccessTime(fvc).total(), 2)});
    }
    std::printf("%s", timing.render().c_str());
    return 0;
}
