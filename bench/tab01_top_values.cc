/**
 * @file
 * Table 1: the ten most frequently occurring and accessed values
 * (hex) for each of the six locality benchmarks, ordered by
 * decreasing frequency.
 */

#include <cstdio>

#include "harness/report.hh"
#include "harness/runner.hh"
#include "profiling/occurrence_sampler.hh"
#include "profiling/value_table.hh"
#include "util/strings.hh"
#include "util/table.hh"
#include "workload/generator.hh"

int
main()
{
    using namespace fvc;

    harness::banner("Table 1",
                    "Frequently occurring and accessed values "
                    "(hex), by decreasing frequency");
    harness::note("paper: the lists mix small constants (0, 1, -1) "
                  "with pointer-like and ASCII values, and overlap "
                  "heavily between 'occurring' and 'accessed'");

    const uint64_t accesses = harness::defaultTraceAccesses() / 2;

    for (auto bench : workload::fvSpecInt()) {
        auto profile = workload::specIntProfile(bench);
        workload::SyntheticWorkload gen(profile, accesses, 66);
        profiling::ValueCounterTable accessed;
        profiling::OccurrenceSampler occurring(accesses);
        trace::MemRecord rec;
        while (gen.next(rec)) {
            if (!rec.isAccess())
                continue;
            accessed.add(rec.value);
            occurring.maybeSample(gen.memory(), rec.icount);
        }
        occurring.sample(gen.memory(), gen.currentIcount());

        harness::section(profile.name);
        util::Table table({"rank", "accessed", "occurring"});
        table.alignRight(0);
        auto acc = accessed.topK(10);
        auto occ = occurring.cumulative().topK(10);
        for (size_t i = 0; i < 10; ++i) {
            table.addRow(
                {std::to_string(i + 1),
                 i < acc.size() ? util::hex32(acc[i].value) : "-",
                 i < occ.size() ? util::hex32(occ[i].value) : "-"});
        }
        table.exportCsv("tab01_top_values_" + profile.name);
        std::printf("%s", table.render().c_str());
    }
    return 0;
}
