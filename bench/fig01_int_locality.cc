/**
 * @file
 * Figure 1: frequently encountered values in SPECint95 — the
 * percentage of memory locations occupied by, and of accesses
 * involving, the top 1/3/7/10 values, per benchmark.
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

    harness::banner("Figure 1",
                    "Frequently encountered values in SPECint95");
    harness::note("paper: in six of eight programs ten values "
                  "occupy >50% of locations and ~50% of accesses; "
                  "129.compress and 132.ijpeg show almost none");

    const uint64_t accesses = harness::defaultTraceAccesses();

    util::Table table({"benchmark", "occ top1 %", "occ top3 %",
                       "occ top7 %", "occ top10 %", "acc top1 %",
                       "acc top3 %", "acc top7 %", "acc top10 %"});
    for (size_t c = 1; c <= 8; ++c)
        table.alignRight(c);

    for (auto bench : workload::allSpecInt()) {
        auto profile = workload::specIntProfile(bench);
        workload::SyntheticWorkload gen(profile, accesses, 61);

        profiling::ValueCounterTable accessed;
        // The paper samples occupancy every 10M instructions; our
        // traces are shorter, so sample 8 times over the run.
        uint64_t interval =
            accesses * 3 / 8; // ~instructions per sample
        profiling::OccurrenceSampler occurring(interval);

        trace::MemRecord rec;
        while (gen.next(rec)) {
            if (!rec.isAccess())
                continue;
            accessed.add(rec.value);
            occurring.maybeSample(gen.memory(), rec.icount);
        }
        occurring.sample(gen.memory(), gen.currentIcount());

        auto accPercent = [&](size_t k) {
            return util::fixedStr(
                100.0 *
                    static_cast<double>(accessed.topKMass(k)) /
                    static_cast<double>(accessed.total()),
                1);
        };
        auto occPercent = [&](size_t k) {
            return util::fixedStr(
                100.0 * occurring.averageTopKFraction(k), 1);
        };

        table.addRow({profile.name, occPercent(1), occPercent(3),
                      occPercent(7), occPercent(10), accPercent(1),
                      accPercent(3), accPercent(7),
                      accPercent(10)});
    }
    table.exportCsv("fig01_int_locality");
    std::printf("%s", table.render().c_str());
    return 0;
}
