/**
 * @file
 * Tests for the experiment harness: trace preparation, replay, and
 * the paper reference data tables.
 */

#include <gtest/gtest.h>

#include "harness/paper_data.hh"
#include "harness/runner.hh"
#include "profiling/access_profiler.hh"

namespace fh = fvc::harness;
namespace fw = fvc::workload;
namespace fc = fvc::cache;
namespace co = fvc::core;
namespace fp = fvc::profiling;

TEST(RunnerTest, PrepareTraceProfilesValues)
{
    auto profile = fw::specIntProfile(fw::SpecInt::Gcc126);
    auto trace = fh::prepareTrace(profile, 20000, 3, 10);
    EXPECT_EQ(trace.name, "126.gcc");
    EXPECT_GE(trace.columns.size(), 20000u);
    EXPECT_EQ(trace.frequent_values.size(), 10u);
    EXPECT_GT(trace.instructions, 20000u);
    // 0 dominates every integer workload's accessed values.
    EXPECT_EQ(trace.frequent_values[0], 0u);
}

TEST(RunnerTest, FrequentValuesMatchAccessProfiler)
{
    // prepareTrace counts values itself; AccessProfiler (Table 3's
    // stability tracker) is the reference for the same ranking.
    constexpr uint64_t kAccesses = 20000;
    constexpr uint64_t kSeed = 9;
    for (auto bench : fw::allSpecInt()) {
        auto profile = fw::specIntProfile(bench);

        fw::SyntheticWorkload gen(profile, kAccesses, kSeed);
        fp::AccessProfiler serial_ref({1});
        fvc::trace::MemRecord rec;
        while (gen.next(rec))
            serial_ref.observe(rec);
        EXPECT_EQ(fh::prepareTrace(profile, kAccesses, kSeed, 10)
                      .frequent_values,
                  serial_ref.topKValues(10))
            << profile.name;

        auto sharded =
            fh::prepareTraceSharded(profile, kAccesses, kSeed, 10, 4);
        fp::AccessProfiler sharded_ref({1});
        sharded.columns.forEachRecord(
            [&](const fvc::trace::MemRecord &r) {
                sharded_ref.observe(r);
            });
        EXPECT_EQ(sharded.frequent_values, sharded_ref.topKValues(10))
            << profile.name;
    }
}

TEST(RunnerTest, ReplayInstallsInitialImage)
{
    auto profile = fw::specIntProfile(fw::SpecInt::Li130);
    auto trace = fh::prepareTrace(profile, 5000, 7);
    fc::CacheConfig cfg;
    cfg.size_bytes = 4096;
    cfg.line_bytes = 32;
    fc::DmcSystem sys(cfg);
    fh::replay(trace, sys);
    // After replay+flush the system's memory image must agree with
    // the generator's final ground truth on every interesting word.
    bool all_match = true;
    trace.final_image.forEachInteresting(
        [&](fvc::trace::Addr addr, fvc::trace::Word value) {
            if (sys.memoryImage().read(addr) != value)
                all_match = false;
        });
    EXPECT_TRUE(all_match);
}

TEST(RunnerTest, DmcMissRateDecreasesWithSize)
{
    auto profile = fw::specIntProfile(fw::SpecInt::Vortex147);
    auto trace = fh::prepareTrace(profile, 50000, 5);
    fc::CacheConfig small, big;
    small.size_bytes = 4 * 1024;
    small.line_bytes = 32;
    big.size_bytes = 64 * 1024;
    big.line_bytes = 32;
    EXPECT_GT(fh::dmcMissRate(trace, small),
              fh::dmcMissRate(trace, big));
}

TEST(RunnerTest, RunDmcFvcUsesProfiledValues)
{
    auto profile = fw::specIntProfile(fw::SpecInt::M88ksim124);
    auto trace = fh::prepareTrace(profile, 50000, 5);
    fc::CacheConfig dmc;
    dmc.size_bytes = 16 * 1024;
    dmc.line_bytes = 32;
    co::FvcConfig fvc;
    fvc.entries = 512;
    fvc.line_bytes = 32;
    fvc.code_bits = 3;
    auto sys = fh::runDmcFvc(trace, dmc, fvc);
    EXPECT_EQ(sys->fvc().encoding().valueCount(), 7u);
    EXPECT_GT(sys->stats().accesses(), 0u);
}

TEST(RunnerTest, DefaultAccessesRespectsEnvironment)
{
    setenv("FVC_TRACE_ACCESSES", "12345", 1);
    EXPECT_EQ(fh::defaultTraceAccesses(), 12345u);
    unsetenv("FVC_TRACE_ACCESSES");
    EXPECT_EQ(fh::defaultTraceAccesses(), 2000000u);
}

TEST(RunnerTest, DefaultAccessesRejectsMalformedEnvironment)
{
    // Trailing garbage is a user error, not a truncated run: the
    // whole value is rejected and the default used instead.
    for (const char *bad : {"100x", "1e6", "0", "-5", "", " 100"}) {
        setenv("FVC_TRACE_ACCESSES", bad, 1);
        EXPECT_EQ(fh::defaultTraceAccesses(), 2000000u)
            << "FVC_TRACE_ACCESSES=" << bad;
    }
    unsetenv("FVC_TRACE_ACCESSES");
}

TEST(PaperDataTest, Table4CoversAllBenchmarks)
{
    EXPECT_EQ(fh::paperTable4().size(), 8u);
    for (const auto &row : fh::paperTable4()) {
        EXPECT_GE(row.constant_percent, 0.0);
        EXPECT_LE(row.constant_percent, 100.0);
    }
}

TEST(PaperDataTest, Fig13FvcAlwaysWins)
{
    // Sanity of the transcribed reference data: in every paper row
    // the FVC configuration beats the doubled DMC.
    for (const auto &row : fh::paperFig13())
        EXPECT_LT(row.with_fvc, row.bigger_dmc) << row.benchmark;
}

TEST(PaperDataTest, HeadlineRange)
{
    auto claim = fh::paperHeadline();
    EXPECT_DOUBLE_EQ(claim.min_reduction_percent, 1.0);
    EXPECT_DOUBLE_EQ(claim.max_reduction_percent, 68.0);
}
