/**
 * @file
 * Calibration regression tests: every synthetic benchmark profile
 * must stay inside loose bands around the characteristics the
 * paper publishes (Figure 1 locality fractions, Table 4 constancy)
 * and keep its miss-behaviour type (conflict vs capacity). These
 * are tripwires for future profile edits, not tight assertions —
 * the bands are wide enough to absorb seed and trace-length noise.
 */

#include <gtest/gtest.h>

#include "cache/cache_system.hh"
#include "harness/runner.hh"
#include "profiling/constancy.hh"
#include "profiling/miss_classifier.hh"
#include "profiling/occurrence_sampler.hh"
#include "profiling/value_table.hh"
#include "workload/generator.hh"

namespace fh = fvc::harness;
namespace fw = fvc::workload;
namespace fp = fvc::profiling;
namespace fc = fvc::cache;
namespace ft = fvc::trace;

namespace {

constexpr uint64_t kAccesses = 150000;

struct Band
{
    double lo;
    double hi;
};

struct Expectation
{
    fw::SpecInt bench;
    Band accessed_top10;  // % of accesses on top-10 values
    Band occurring_top10; // % of locations holding top-10 values
    Band constant;        // % constant addresses (Table 4 ref)
    /** True if direct-mapped misses are mostly conflicts. */
    bool conflict_dominated;
};

// Paper references: Fig 1 (~50% for the six, ~0 for two),
// Table 4 constancy, Fig 13/14 miss-type behaviour.
const Expectation kExpectations[] = {
    {fw::SpecInt::Go099, {45, 85}, {40, 75}, {70, 92}, false},
    {fw::SpecInt::M88ksim124, {70, 99}, {70, 99}, {95, 100}, true},
    {fw::SpecInt::Gcc126, {45, 80}, {40, 75}, {55, 80}, false},
    {fw::SpecInt::Li130, {35, 70}, {35, 70}, {20, 50}, true},
    {fw::SpecInt::Perl134, {50, 90}, {40, 80}, {72, 95}, true},
    {fw::SpecInt::Vortex147, {45, 85}, {40, 75}, {70, 92}, false},
    {fw::SpecInt::Compress129, {0, 12}, {0, 12}, {0, 18}, false},
    {fw::SpecInt::Ijpeg132, {0, 15}, {0, 15}, {0, 22}, false},
};

class CalibrationTest
    : public ::testing::TestWithParam<Expectation>
{
};

} // namespace

TEST_P(CalibrationTest, LocalityAndConstancyBands)
{
    const Expectation &e = GetParam();
    auto profile = fw::specIntProfile(e.bench);
    fw::SyntheticWorkload gen(profile, kAccesses, 107);
    fp::ValueCounterTable accessed;
    fp::OccurrenceSampler occurring(kAccesses); // ~3 samples
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

    double acc = 100.0 *
                 static_cast<double>(accessed.topKMass(10)) /
                 static_cast<double>(accessed.total());
    double occ = 100.0 * occurring.averageTopKFraction(10);
    double con = constancy.constantPercent();

    EXPECT_GE(acc, e.accessed_top10.lo) << profile.name;
    EXPECT_LE(acc, e.accessed_top10.hi) << profile.name;
    EXPECT_GE(occ, e.occurring_top10.lo) << profile.name;
    EXPECT_LE(occ, e.occurring_top10.hi) << profile.name;
    EXPECT_GE(con, e.constant.lo) << profile.name;
    EXPECT_LE(con, e.constant.hi) << profile.name;
}

TEST_P(CalibrationTest, MissTypeDominance)
{
    const Expectation &e = GetParam();
    auto profile = fw::specIntProfile(e.bench);
    auto trace = fh::prepareTrace(profile, kAccesses, 108);

    fc::CacheConfig cfg;
    cfg.size_bytes = 16 * 1024;
    cfg.line_bytes = 32;
    fc::DmcSystem sys(cfg);
    fp::MissClassifier classifier(cfg.lines(), cfg.line_bytes);
    trace.initial_image.forEachInteresting(
        [&](ft::Addr addr, ft::Word value) {
            sys.memoryImage().write(addr, value);
        });
    trace.columns.forEachRecord([&](const ft::MemRecord &rec) {
        if (!rec.isAccess())
            return;
        auto result = sys.access(rec);
        classifier.access(rec.addr, !result.isHit());
    });
    const auto &b = classifier.breakdown();
    ASSERT_GT(b.total(), 0u) << profile.name;
    double conflict_share = static_cast<double>(b.conflict) /
                            static_cast<double>(b.total());
    if (e.conflict_dominated)
        EXPECT_GT(conflict_share, 0.5) << profile.name;
    else
        EXPECT_LT(conflict_share, 0.5) << profile.name;
}

TEST_P(CalibrationTest, BaselineMissRateSane)
{
    // Every profile must produce a plausible direct-mapped miss
    // rate: not hit-free (nothing to study) and not thrashing.
    const Expectation &e = GetParam();
    auto profile = fw::specIntProfile(e.bench);
    auto trace = fh::prepareTrace(profile, kAccesses, 109);
    fc::CacheConfig cfg;
    cfg.size_bytes = 16 * 1024;
    cfg.line_bytes = 32;
    double miss = fh::dmcMissRate(trace, cfg);
    EXPECT_GT(miss, 0.05) << profile.name;
    EXPECT_LT(miss, 30.0) << profile.name;
}

INSTANTIATE_TEST_SUITE_P(
    AllBenchmarks, CalibrationTest,
    ::testing::ValuesIn(kExpectations),
    [](const ::testing::TestParamInfo<Expectation> &info) {
        std::string name = fw::specIntName(info.param.bench);
        for (char &c : name) {
            if (!isalnum(static_cast<unsigned char>(c)))
                c = '_';
        }
        return name;
    });

TEST(FpCalibrationTest, FpSuiteShowsLocality)
{
    // Figure 2: every modelled SPECfp95 program shows substantial
    // frequent value locality.
    for (const auto &name : fw::allSpecFpNames()) {
        auto profile = fw::specFpProfile(name);
        fw::SyntheticWorkload gen(profile, 60000, 110);
        fp::ValueCounterTable accessed;
        ft::MemRecord rec;
        while (gen.next(rec)) {
            if (rec.isAccess())
                accessed.add(rec.value);
        }
        double acc =
            100.0 *
            static_cast<double>(accessed.topKMass(10)) /
            static_cast<double>(accessed.total());
        EXPECT_GT(acc, 40.0) << name;
        EXPECT_LT(acc, 90.0) << name;
    }
}
