/**
 * @file
 * fvc_fabric: command-line driver for the multi-process sweep
 * fabric. Runs a small SPECint95 (profile x geometry) sweep through
 * FabricRunner so the crash-tolerance machinery can be exercised —
 * and observed — outside the test suite:
 *
 *   FVC_WORKERS=4 ./fvc_fabric
 *   FVC_WORKERS=2 FVC_FAULT_SPEC=kill_cell=3 ./fvc_fabric
 *
 * Knobs: FVC_WORKERS (process count), FVC_JOB_TIMEOUT_MS (per-cell
 * budget), FVC_FABRIC_DIR (scratch dir), FVC_FAULT_SPEC
 * (kill_cell= / hang_cell= / corrupt_spill= fault injection), plus
 * the usual trace knobs (FVC_TRACE_ACCESSES, FVC_TRACE_DIR).
 */

#include <cstdio>
#include <cstring>
#include <string>

#include "fabric/fabric.hh"
#include "harness/report.hh"
#include "harness/runner.hh"
#include "util/strings.hh"
#include "util/table.hh"

namespace {

const fvc::workload::SpecInt kBenches[] = {
    fvc::workload::SpecInt::Go099,
    fvc::workload::SpecInt::M88ksim124,
    fvc::workload::SpecInt::Compress129,
    fvc::workload::SpecInt::Perl134,
};

const unsigned kDmcKb[] = {8, 16};

int
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s [--accesses N]\n"
                 "  --accesses N    trace length per cell "
                 "(default FVC_TRACE_ACCESSES)\n",
                 argv0);
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace fvc;

    uint64_t accesses = harness::defaultTraceAccesses();
    for (int i = 1; i < argc; ++i) {
        if (std::string(argv[i]) != "--accesses" || i + 1 >= argc)
            return usage(argv[0]);
        auto v = util::parseUint(argv[++i]);
        if (!v || *v == 0)
            return usage(argv[0]);
        accesses = *v;
    }

    harness::banner("Sweep fabric",
                    "multi-process DMC vs DMC+FVC sweep");
    const unsigned workers =
        fabric::configuredWorkers().value_or(1);
    harness::note("workers=" + std::to_string(workers) +
                  " dir=" + fabric::fabricDir());

    fabric::FabricRunner runner;
    std::vector<fabric::CellSpec> specs;
    for (auto bench : kBenches) {
        for (unsigned kb : kDmcKb) {
            fabric::CellSpec cell;
            cell.bench = bench;
            cell.accesses = accesses;
            cell.dmc.size_bytes = kb * 1024;
            runner.submit(cell);
            specs.push_back(cell);
            cell.fvc.entries = 512;
            cell.fvc.line_bytes = cell.dmc.line_bytes;
            cell.fvc.code_bits = 3;
            cell.has_fvc = true;
            runner.submit(cell);
            specs.push_back(cell);
        }
    }

    fabric::FabricOutcome outcome = runner.run();

    util::Table table({"cell", "miss %", "attempts"});
    table.alignRight(1);
    table.alignRight(2);
    for (size_t i = 0; i < specs.size(); ++i) {
        const auto &result = outcome.results[i];
        table.addRow(
            {specs[i].describe(),
             result ? util::fixedStr(
                          result->cache.missRatePercent(), 3)
                    : harness::failedCell(),
             result ? std::to_string(outcome.meta[i].attempts)
                    : "-"});
    }
    std::printf("%s", table.render().c_str());

    std::printf("\nfabric: run_id=%016llx simulated=%llu "
                "reclaims=%llu kills=%llu respawns=%llu "
                "rejected_frames=%llu\n",
                static_cast<unsigned long long>(outcome.run_id),
                static_cast<unsigned long long>(outcome.simulated),
                static_cast<unsigned long long>(outcome.reclaims),
                static_cast<unsigned long long>(outcome.kills),
                static_cast<unsigned long long>(outcome.respawns),
                static_cast<unsigned long long>(
                    outcome.rejected_frames));

    if (!outcome.failures.empty()) {
        harness::reportSweepFailures(
            outcome.failures, specs.size(),
            "fabric sweep");
        return 1;
    }
    return 0;
}
