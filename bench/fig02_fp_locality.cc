/**
 * @file
 * Figure 2: frequently encountered values in SPECfp95. The
 * floating-point benchmarks also show a high degree of frequent
 * value locality (0.0/1.0 bit patterns dominate).
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

    harness::banner("Figure 2",
                    "Frequently encountered values in SPECfp95");
    harness::note("paper: the FP suite also exhibits high frequent "
                  "value locality");

    const uint64_t accesses = harness::defaultTraceAccesses() / 2;

    util::Table table({"benchmark", "occ top1 %", "occ top3 %",
                       "occ top7 %", "occ top10 %", "acc top10 %"});
    for (size_t c = 1; c <= 5; ++c)
        table.alignRight(c);

    for (const auto &name : workload::allSpecFpNames()) {
        auto profile = workload::specFpProfile(name);
        workload::SyntheticWorkload gen(profile, accesses, 62);

        profiling::ValueCounterTable accessed;
        profiling::OccurrenceSampler occurring(accesses * 3 / 6);

        trace::MemRecord rec;
        while (gen.next(rec)) {
            if (!rec.isAccess())
                continue;
            accessed.add(rec.value);
            occurring.maybeSample(gen.memory(), rec.icount);
        }
        occurring.sample(gen.memory(), gen.currentIcount());

        auto occPercent = [&](size_t k) {
            return util::fixedStr(
                100.0 * occurring.averageTopKFraction(k), 1);
        };
        table.addRow(
            {name, occPercent(1), occPercent(3), occPercent(7),
             occPercent(10),
             util::fixedStr(
                 100.0 *
                     static_cast<double>(accessed.topKMass(10)) /
                     static_cast<double>(accessed.total()),
                 1)});
    }
    table.exportCsv("fig02_fp_locality");
    std::printf("%s", table.render().c_str());
    return 0;
}
