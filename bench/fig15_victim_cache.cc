/**
 * @file
 * Figure 15: victim cache vs FVC on a 4 Kb DMC with 8-word lines.
 * Two pairings: (a) equal storage — a 16-entry fully-associative
 * VC vs a 128-entry FVC; (b) equal access time — a 4-entry VC
 * (~9ns) vs a 512-entry FVC (~6ns).
 *
 * Three cells per (pairing, benchmark) — bare DMC, DMC+VC, DMC+FVC
 * — resolved through daemon::runCells. The bare-DMC cell is
 * identical across both pairings, so the repository simulates it
 * once and serves the duplicate from the in-process dedup map.
 */

#include <cstdio>

#include "core/size_model.hh"
#include "daemon/client.hh"
#include "fabric/cell.hh"
#include "harness/report.hh"
#include "harness/runner.hh"
#include "timing/access_time.hh"
#include "util/strings.hh"
#include "util/table.hh"

namespace {

using namespace fvc;

struct Cell
{
    double base;
    double vc_miss;
    double fvc_miss;
};

void
submitComparison(std::vector<fabric::CellSpec> &specs,
                 uint32_t vc_entries, uint32_t fvc_entries,
                 uint64_t accesses)
{
    cache::CacheConfig dmc;
    dmc.size_bytes = 4 * 1024;
    dmc.line_bytes = 32;

    for (auto bench : workload::fvSpecInt()) {
        fabric::CellSpec base;
        base.bench = bench;
        base.accesses = accesses;
        base.seed = 73;
        base.dmc = dmc;
        specs.push_back(base);
        fabric::CellSpec vc = base;
        vc.victim_entries = vc_entries;
        specs.push_back(vc);
        fabric::CellSpec fvc = base;
        fvc.fvc.entries = fvc_entries;
        fvc.fvc.line_bytes = 32;
        fvc.fvc.code_bits = 3;
        fvc.has_fvc = true;
        specs.push_back(fvc);
    }
}

void
printComparison(const char *title, uint32_t vc_entries,
                uint32_t fvc_entries,
                const std::vector<std::optional<Cell>> &cells,
                size_t &job)
{
    harness::section(title);

    core::FvcConfig fvc;
    fvc.entries = fvc_entries;
    fvc.line_bytes = 32;
    fvc.code_bits = 3;

    std::printf(
        "  storage: VC %llu bits, FVC %llu bits; access time: VC "
        "%.1fns, FVC %.1fns\n",
        static_cast<unsigned long long>(
            core::victimStorage(vc_entries, 32).totalBits()),
        static_cast<unsigned long long>(
            core::fvcStorage(fvc).totalBits()),
        timing::victimAccessTime(vc_entries, 32).total(),
        timing::fvcAccessTime(fvc).total());

    util::Table table({"benchmark", "DMC miss %", "+VC miss %",
                       "+FVC miss %", "VC red %", "FVC red %"});
    for (size_t c = 1; c <= 5; ++c)
        table.alignRight(c);

    for (auto bench : workload::fvSpecInt()) {
        auto profile = workload::specIntProfile(bench);
        const auto &slot = cells[job++];
        if (!slot) {
            table.addRow({profile.name, harness::failedCell(),
                          harness::failedCell(),
                          harness::failedCell(),
                          harness::failedCell(),
                          harness::failedCell()});
            continue;
        }
        const Cell &cell = *slot;
        auto reduction = [&cell](double with) {
            return util::fixedStr(100.0 * (cell.base - with) /
                                      (cell.base > 0.0 ? cell.base
                                                       : 1.0),
                                  1);
        };
        table.addRow({profile.name, util::fixedStr(cell.base, 3),
                      util::fixedStr(cell.vc_miss, 3),
                      util::fixedStr(cell.fvc_miss, 3),
                      reduction(cell.vc_miss),
                      reduction(cell.fvc_miss)});
    }
    table.exportCsv("fig15_victim_cache");
    std::printf("%s", table.render().c_str());
}

} // namespace

int
main()
{
    harness::banner("Figure 15",
                    "Fully-associative victim cache vs "
                    "direct-mapped FVC (4Kb DMC, 8-word lines)");
    harness::note("paper: at equal storage the VC wins; at equal "
                  "access time the FVC wins — both are effective");

    const uint64_t accesses = harness::defaultTraceAccesses();

    std::vector<fabric::CellSpec> specs;
    submitComparison(specs, 16, 128, accesses);
    submitComparison(specs, 4, 512, accesses);
    auto results = daemon::runCells(specs, "Figure 15 sweep");

    std::vector<std::optional<Cell>> cells;
    for (size_t i = 0; i < results.size(); i += 3) {
        if (!results[i] || !results[i + 1] || !results[i + 2]) {
            cells.push_back(std::nullopt);
            continue;
        }
        Cell cell;
        cell.base = results[i]->cache.missRatePercent();
        cell.vc_miss = results[i + 1]->cache.missRatePercent();
        cell.fvc_miss = results[i + 2]->cache.missRatePercent();
        cells.push_back(cell);
    }

    size_t job = 0;
    printComparison(
        "equal storage: 16-entry VC vs 128-entry FVC", 16, 128,
        cells, job);
    printComparison(
        "equal access time: 4-entry VC (~9ns) vs 512-entry FVC "
        "(~6ns)",
        4, 512, cells, job);
    return 0;
}
