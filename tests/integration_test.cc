/**
 * @file
 * Integration tests: miniature versions of the paper's experiments,
 * asserting the qualitative results the bench binaries reproduce at
 * full scale.
 */

#include <gtest/gtest.h>

#include "cache/victim_cache.hh"
#include "harness/runner.hh"
#include "profiling/constancy.hh"
#include "profiling/occurrence_sampler.hh"
#include "profiling/uniformity.hh"
#include "profiling/value_table.hh"
#include "timing/access_time.hh"
#include "workload/generator.hh"

namespace fh = fvc::harness;
namespace fw = fvc::workload;
namespace fp = fvc::profiling;
namespace fc = fvc::cache;
namespace co = fvc::core;
namespace ft = fvc::trace;

namespace {

constexpr uint64_t kAccesses = 120000;

struct LocalityResult
{
    double accessed_top10;
    double occurring_top10;
    double constant_percent;
};

LocalityResult
characterize(fw::SpecInt bench)
{
    auto profile = fw::specIntProfile(bench);
    fw::SyntheticWorkload gen(profile, kAccesses, 51);
    fp::ValueCounterTable accessed;
    fp::OccurrenceSampler occurring(300000);
    fp::ConstancyTracker constancy(&gen.initialImage());
    ft::MemRecord rec;
    while (gen.next(rec)) {
        constancy.observe(rec);
        if (!rec.isAccess())
            continue;
        accessed.add(rec.value);
        occurring.maybeSample(gen.memory(), rec.icount);
    }
    occurring.sample(gen.memory(), gen.currentIcount());
    LocalityResult out;
    out.accessed_top10 =
        100.0 *
        static_cast<double>(accessed.topKMass(10)) /
        static_cast<double>(accessed.total());
    out.occurring_top10 =
        100.0 * occurring.averageTopKFraction(10);
    out.constant_percent = constancy.constantPercent();
    return out;
}

} // namespace

TEST(Figure1Integration, SixBenchmarksShowLocalityTwoDoNot)
{
    for (auto bench : fw::fvSpecInt()) {
        auto r = characterize(bench);
        EXPECT_GT(r.accessed_top10, 40.0)
            << fw::specIntName(bench);
        EXPECT_GT(r.occurring_top10, 40.0)
            << fw::specIntName(bench);
    }
    for (auto bench :
         {fw::SpecInt::Compress129, fw::SpecInt::Ijpeg132}) {
        auto r = characterize(bench);
        EXPECT_LT(r.accessed_top10, 15.0)
            << fw::specIntName(bench);
        EXPECT_LT(r.occurring_top10, 15.0)
            << fw::specIntName(bench);
    }
}

TEST(Table4Integration, ConstancyOrderingMatchesPaper)
{
    auto m88k = characterize(fw::SpecInt::M88ksim124);
    auto li = characterize(fw::SpecInt::Li130);
    auto compress = characterize(fw::SpecInt::Compress129);
    // m88ksim is the most constant, li much less so, compress
    // nearly none (paper: 99.3 / 28.8 / 3.2).
    EXPECT_GT(m88k.constant_percent, 90.0);
    EXPECT_LT(li.constant_percent, 65.0);
    EXPECT_LT(compress.constant_percent, 15.0);
    EXPECT_GT(m88k.constant_percent, li.constant_percent);
    EXPECT_GT(li.constant_percent, compress.constant_percent);
}

TEST(Figure5Integration, FrequentValuesSpreadUniformly)
{
    auto profile = fw::specIntProfile(fw::SpecInt::Gcc126);
    fw::SyntheticWorkload gen(profile, kAccesses, 52);
    ft::MemRecord rec;
    while (gen.next(rec)) {
    }
    // Use the pool's nominal top-7 for the snapshot study.
    std::vector<ft::Word> top7;
    for (const auto &wv :
         profile.phases.back().pool.frequent) {
        if (top7.size() < 7)
            top7.push_back(wv.value);
    }
    auto blocks =
        fp::analyzeUniformity(gen.memory(), top7, 800, 8);
    auto summary = fp::summarizeUniformity(blocks);
    EXPECT_GT(summary.blocks, 10u);
    // Paper: ~4 frequent values per 8-word line, fairly uniform.
    EXPECT_GT(summary.mean, 1.5);
    EXPECT_LT(summary.mean, 7.0);
    EXPECT_LT(summary.stddev, summary.mean);
}

TEST(Figure10Integration, FvcReducesM88ksimMisses)
{
    auto profile = fw::specIntProfile(fw::SpecInt::M88ksim124);
    auto trace = fh::prepareTrace(profile, kAccesses, 53);
    fc::CacheConfig dmc;
    dmc.size_bytes = 16 * 1024;
    dmc.line_bytes = 32;
    double base = fh::dmcMissRate(trace, dmc);
    co::FvcConfig fvc;
    fvc.entries = 64;
    fvc.line_bytes = 32;
    fvc.code_bits = 3;
    auto sys = fh::runDmcFvc(trace, dmc, fvc);
    double with = sys->stats().missRatePercent();
    // Paper: >50% reduction for m88ksim, achieved already at 64
    // entries. Short integration traces carry proportionally more
    // warmup misses, so assert a 35% floor here; the full-scale
    // bench lands in the paper's 55-68% band.
    EXPECT_LT(with, base * 0.65);
}

TEST(Figure13Integration, SmallDmcPlusFvcBeatsDoubledDmc)
{
    for (auto bench :
         {fw::SpecInt::M88ksim124, fw::SpecInt::Perl134}) {
        auto profile = fw::specIntProfile(bench);
        auto trace = fh::prepareTrace(profile, kAccesses, 54);
        fc::CacheConfig small, big;
        small.size_bytes = 16 * 1024;
        small.line_bytes = 32;
        big.size_bytes = 32 * 1024;
        big.line_bytes = 32;
        co::FvcConfig fvc;
        fvc.entries = 512;
        fvc.line_bytes = 32;
        fvc.code_bits = 3;
        auto sys = fh::runDmcFvc(trace, small, fvc);
        EXPECT_LT(sys->stats().missRatePercent(),
                  fh::dmcMissRate(trace, big))
            << fw::specIntName(bench);
    }
}

TEST(Figure14Integration, AssociativityErasesConflictBenefit)
{
    auto profile = fw::specIntProfile(fw::SpecInt::Perl134);
    auto trace = fh::prepareTrace(profile, kAccesses, 55);
    co::FvcConfig fvc;
    fvc.entries = 512;
    fvc.line_bytes = 32;
    fvc.code_bits = 3;

    fc::CacheConfig direct;
    direct.size_bytes = 16 * 1024;
    direct.line_bytes = 32;
    double d_base = fh::dmcMissRate(trace, direct);
    double d_with =
        fh::runDmcFvc(trace, direct, fvc)->stats()
            .missRatePercent();

    fc::CacheConfig four_way = direct;
    four_way.assoc = 4;
    double a_base = fh::dmcMissRate(trace, four_way);
    double a_with =
        fh::runDmcFvc(trace, four_way, fvc)->stats()
            .missRatePercent();

    double direct_gain = (d_base - d_with) / d_base;
    double assoc_gain =
        a_base > 0 ? (a_base - a_with) / a_base : 0.0;
    EXPECT_GT(direct_gain, 0.15);
    EXPECT_LT(assoc_gain, direct_gain / 2.0);
}

TEST(Figure11Integration, FvcContentMostlyFrequent)
{
    auto profile = fw::specIntProfile(fw::SpecInt::M88ksim124);
    auto trace = fh::prepareTrace(profile, kAccesses, 56);
    fc::CacheConfig dmc;
    dmc.size_bytes = 16 * 1024;
    dmc.line_bytes = 32;
    co::FvcConfig fvc;
    fvc.entries = 512;
    fvc.line_bytes = 32;
    fvc.code_bits = 3;
    auto sys = fh::runDmcFvc(trace, dmc, fvc);
    // Paper Figure 11: over 40% of FVC code slots hold frequent
    // values for most programs.
    EXPECT_GT(sys->fvcStats().averageFrequentContent(), 0.4);
}

TEST(Figure15Integration, VictimCacheAndFvcBothHelp)
{
    auto profile = fw::specIntProfile(fw::SpecInt::M88ksim124);
    auto trace = fh::prepareTrace(profile, kAccesses, 57);
    fc::CacheConfig dmc;
    dmc.size_bytes = 4 * 1024;
    dmc.line_bytes = 32;
    double base = fh::dmcMissRate(trace, dmc);

    fc::DmcVictimSystem vc_sys(dmc, 4);
    fh::replay(trace, vc_sys);
    co::FvcConfig fvc;
    fvc.entries = 512;
    fvc.line_bytes = 32;
    fvc.code_bits = 3;
    auto fvc_sys = fh::runDmcFvc(trace, dmc, fvc);

    EXPECT_LT(vc_sys.stats().missRatePercent(), base);
    EXPECT_LT(fvc_sys->stats().missRatePercent(), base);
}

TEST(Figure9Integration, FvcTimingCompetitive)
{
    co::FvcConfig fvc;
    fvc.entries = 512;
    fvc.line_bytes = 32;
    fvc.code_bits = 3;
    fc::CacheConfig dmc;
    dmc.size_bytes = 16 * 1024;
    dmc.line_bytes = 32;
    EXPECT_LE(fvc::timing::fvcAccessTime(fvc).total(),
              fvc::timing::cacheAccessTime(dmc).total());
}

TEST(Table2Integration, InputOverlapHighForGoLowForM88ksim)
{
    auto overlap = [](fw::SpecInt bench, fw::InputSet input,
                      size_t k) {
        auto ref_trace = fh::prepareTrace(
            fw::specIntProfile(bench, fw::InputSet::Ref), 60000,
            58, k);
        auto alt_trace = fh::prepareTrace(
            fw::specIntProfile(bench, input), 60000, 58, k);
        size_t common = 0;
        for (auto v : alt_trace.frequent_values) {
            for (auto w : ref_trace.frequent_values) {
                if (v == w)
                    ++common;
            }
        }
        return common;
    };
    // go's frequent values are input-insensitive small ints.
    EXPECT_GE(overlap(fw::SpecInt::Go099, fw::InputSet::Test, 10),
              8u);
    // m88ksim's are mostly addresses: low overlap (paper: 2/10;
    // our hot-structure constants keep a few more in common).
    EXPECT_LE(
        overlap(fw::SpecInt::M88ksim124, fw::InputSet::Test, 10),
        7u);
}
