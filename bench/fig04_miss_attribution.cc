/**
 * @file
 * Figure 4: the share of cache misses attributable to the top-10
 * frequently occurring and top-10 frequently accessed values, for
 * a 16 Kb DMC with 16-byte lines.
 */

#include <cstdio>
#include <unordered_set>

#include "cache/cache_system.hh"
#include "harness/report.hh"
#include "harness/runner.hh"
#include "profiling/occurrence_sampler.hh"
#include "profiling/value_table.hh"
#include "util/stats.hh"
#include "util/strings.hh"
#include "util/table.hh"
#include "workload/generator.hh"

int
main()
{
    using namespace fvc;

    harness::banner("Figure 4",
                    "Cache miss behaviour: 16Kb DMC, 16-byte lines");
    harness::note("paper: ~50% of misses involve the ten most "
                  "frequently occurring/accessed values in the six "
                  "locality benchmarks");

    const uint64_t accesses = harness::defaultTraceAccesses();

    util::Table table({"benchmark", "miss %",
                       "misses on top-10 occurring %",
                       "misses on top-10 accessed %"});
    for (size_t c = 1; c <= 3; ++c)
        table.alignRight(c);

    for (auto bench : workload::allSpecInt()) {
        auto profile = workload::specIntProfile(bench);

        // Pass 1: profile the occurring and accessed value sets.
        workload::SyntheticWorkload prof_gen(profile, accesses, 64);
        profiling::ValueCounterTable accessed;
        profiling::OccurrenceSampler occurring(accesses);
        trace::MemRecord rec;
        while (prof_gen.next(rec)) {
            if (!rec.isAccess())
                continue;
            accessed.add(rec.value);
            occurring.maybeSample(prof_gen.memory(), rec.icount);
        }
        occurring.sample(prof_gen.memory(),
                         prof_gen.currentIcount());

        std::unordered_set<trace::Word> top_accessed,
            top_occurring;
        for (const auto &vc : accessed.topK(10))
            top_accessed.insert(vc.value);
        for (const auto &vc : occurring.cumulative().topK(10))
            top_occurring.insert(vc.value);

        // Pass 2 (same seed => same trace): attribute misses.
        cache::CacheConfig cfg;
        cfg.size_bytes = 16 * 1024;
        cfg.line_bytes = 16;
        cache::DmcSystem sys(cfg);
        workload::SyntheticWorkload gen(profile, accesses, 64);
        uint64_t misses = 0, on_accessed = 0, on_occurring = 0;
        while (gen.next(rec)) {
            if (!rec.isAccess())
                continue;
            auto result = sys.access(rec);
            if (result.isHit())
                continue;
            ++misses;
            if (top_accessed.count(rec.value))
                ++on_accessed;
            if (top_occurring.count(rec.value))
                ++on_occurring;
        }

        table.addRow(
            {profile.name,
             util::fixedStr(sys.stats().missRatePercent(), 3),
             util::fixedStr(util::percent(on_occurring, misses), 1),
             util::fixedStr(util::percent(on_accessed, misses),
                            1)});
    }
    table.exportCsv("fig04_miss_attribution");
    std::printf("%s", table.render().c_str());
    return 0;
}
