/**
 * @file
 * Value-profiler example: reproduces the Section 2 characterization
 * for every modelled SPECint95 benchmark — frequently accessed and
 * occurring values, locality fractions, and constancy — using the
 * library's profiling toolkit.
 */

#include <cstdio>
#include <cstdlib>

#include "profiling/constancy.hh"
#include "profiling/occurrence_sampler.hh"
#include "profiling/value_table.hh"
#include "util/strings.hh"
#include "util/table.hh"
#include "workload/generator.hh"

int
main(int argc, char **argv)
{
    using namespace fvc;

    uint64_t accesses = 400000;
    if (argc > 1)
        accesses = std::strtoull(argv[1], nullptr, 10);

    util::Table table({"benchmark", "acc top10 %", "occ top10 %",
                       "constant %", "distinct vals",
                       "top accessed values (hex)"});
    for (size_t c = 1; c <= 4; ++c)
        table.alignRight(c);

    for (auto bench : workload::allSpecInt()) {
        auto profile = workload::specIntProfile(bench);
        workload::SyntheticWorkload gen(profile, accesses, 7);

        profiling::ValueCounterTable accessed;
        profiling::OccurrenceSampler occurring(500000);
        profiling::ConstancyTracker constancy(&gen.initialImage());

        trace::MemRecord rec;
        while (gen.next(rec)) {
            constancy.observe(rec);
            if (!rec.isAccess())
                continue;
            accessed.add(rec.value);
            occurring.maybeSample(gen.memory(), rec.icount);
        }
        occurring.sample(gen.memory(), gen.currentIcount());

        double acc10 = 100.0 *
            static_cast<double>(accessed.topKMass(10)) /
            static_cast<double>(accessed.total());
        double occ10 = 100.0 * occurring.averageTopKFraction(10);

        std::vector<std::string> tops;
        for (const auto &vc : accessed.topK(5))
            tops.push_back(util::hex32(vc.value));

        table.addRow({profile.name, util::fixedStr(acc10, 1),
                      util::fixedStr(occ10, 1),
                      util::fixedStr(constancy.constantPercent(), 1),
                      util::withCommas(accessed.distinct()),
                      util::join(tops, " ")});
    }
    std::printf("%s", table.render().c_str());
    std::printf("\n(cf. paper Figure 1 and Table 4: the first six "
                "benchmarks show ~50%% frequent-value locality; "
                "compress and ijpeg show almost none)\n");
    return 0;
}
