/**
 * @file
 * Extension: ablation of the two FVC policy choices DESIGN.md
 * calls out — skipping barren insertions (lines with no frequent
 * content) and frequent-value write allocation (Section 3's
 * "second situation").
 *
 * Five cells per benchmark — the bare DMC and the four policy
 * combinations — resolved through daemon::runCells.
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

    harness::banner("Extension: policy ablation",
                    "FVC transfer-policy ablations "
                    "(16Kb DMC, 512-entry top-7 FVC)");
    harness::note("columns are % miss-rate reduction vs the bare "
                  "DMC under each policy combination");

    const uint64_t accesses = harness::defaultTraceAccesses();

    cache::CacheConfig dmc;
    dmc.size_bytes = 16 * 1024;
    dmc.line_bytes = 32;
    core::FvcConfig fvc;
    fvc.entries = 512;
    fvc.line_bytes = 32;
    fvc.code_bits = 3;

    struct Variant
    {
        const char *name;
        bool skip_barren;
        bool write_allocate;
    };
    const Variant variants[] = {
        {"paper (skip+walloc)", true, true},
        {"no write-allocate", true, false},
        {"insert barren lines", false, true},
        {"neither", false, false},
    };

    std::vector<std::string> headers = {"benchmark", "DMC miss %"};
    for (const auto &v : variants)
        headers.push_back(v.name);
    util::Table table(headers);
    for (size_t c = 1; c < headers.size(); ++c)
        table.alignRight(c);

    const auto benches = workload::fvSpecInt();
    std::vector<fabric::CellSpec> specs;
    for (auto bench : benches) {
        fabric::CellSpec base;
        base.bench = bench;
        base.accesses = accesses;
        base.seed = 85;
        base.dmc = dmc;
        specs.push_back(base);
        for (const auto &variant : variants) {
            fabric::CellSpec cell = base;
            cell.fvc = fvc;
            cell.has_fvc = true;
            cell.policy.skip_barren_insertions = variant.skip_barren;
            cell.policy.write_allocate_frequent =
                variant.write_allocate;
            specs.push_back(cell);
        }
    }
    auto results = daemon::runCells(specs, "policy ablation sweep");

    size_t job = 0;
    for (auto bench : benches) {
        auto profile = workload::specIntProfile(bench);
        const auto &base_slot = results[job++];
        std::vector<std::string> row = {
            profile.name,
            base_slot
                ? util::fixedStr(base_slot->cache.missRatePercent(),
                                 3)
                : harness::failedCell()};
        for (size_t v = 0; v < std::size(variants); ++v) {
            const auto &slot = results[job++];
            if (!base_slot || !slot) {
                row.push_back(harness::failedCell());
                continue;
            }
            double base = base_slot->cache.missRatePercent();
            row.push_back(util::fixedStr(
                100.0 *
                    (base - slot->cache.missRatePercent()) /
                    (base > 0.0 ? base : 1.0),
                1));
        }
        table.addRow(row);
    }
    std::printf("%s", table.render().c_str());
    return 0;
}
