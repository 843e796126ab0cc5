/**
 * @file
 * Tests for the online-training extension: encoding rekey,
 * retrain-with-writeback, and the adaptive system end to end.
 */

#include <gtest/gtest.h>

#include "core/adaptive_system.hh"
#include "harness/runner.hh"

namespace co = fvc::core;
namespace fc = fvc::cache;
namespace fh = fvc::harness;
namespace fw = fvc::workload;
namespace ft = fvc::trace;

namespace {

fc::CacheConfig
smallDmc()
{
    fc::CacheConfig cfg;
    cfg.size_bytes = 4 * 1024;
    cfg.line_bytes = 32;
    return cfg;
}

co::FvcConfig
smallFvc()
{
    co::FvcConfig cfg;
    cfg.entries = 128;
    cfg.line_bytes = 32;
    cfg.code_bits = 3;
    return cfg;
}

} // namespace

TEST(RekeyTest, ReplacesEncodingAfterFlush)
{
    co::FrequentValueCache fvc(
        smallFvc(), co::FrequentValueEncoding({1, 2, 3}, 3));
    std::vector<ft::Word> line(8, 1);
    std::vector<co::Code> codes(line.size());
    fvc.encoding().encodeLine(line, codes);
    fvc.insertLine(0x1000, codes, false);
    fvc.flush();
    fvc.rekey(co::FrequentValueEncoding({7, 8, 9}, 3));
    EXPECT_TRUE(fvc.encoding().isFrequent(7));
    EXPECT_FALSE(fvc.encoding().isFrequent(1));
}

TEST(RetrainTest, WritesBackDirtyEntries)
{
    co::DmcFvcSystem sys(smallDmc(), smallFvc(),
                         co::FrequentValueEncoding({8}, 3));
    // Frequent write allocation leaves a dirty FVC entry.
    sys.access({ft::Op::Store, 0x5004, 8, 1});
    ASSERT_TRUE(sys.fvc().tagMatch(0x5004));
    sys.retrain({1, 2, 3});
    EXPECT_EQ(sys.memoryImage().read(0x5004), 8u);
    EXPECT_EQ(sys.fvc().validLines(), 0u);
    EXPECT_TRUE(sys.fvc().encoding().isFrequent(1));
    EXPECT_FALSE(sys.fvc().encoding().isFrequent(8));
}

TEST(AdaptiveTest, TrainsAfterWarmup)
{
    co::AdaptiveTrainPolicy policy;
    policy.warmup_accesses = 1000;
    co::AdaptiveDmcFvcSystem sys(smallDmc(), smallFvc(), policy);
    // Stream a heavily skewed value distribution.
    for (int i = 0; i < 2000; ++i) {
        ft::Addr addr = static_cast<ft::Addr>((i % 256) * 4);
        sys.access({ft::Op::Store, addr, i % 3 == 0 ? 42u : 7u,
                    static_cast<uint64_t>(i)});
    }
    EXPECT_EQ(sys.adaptiveStats().trainings, 1u);
    auto values = sys.currentValues();
    ASSERT_GE(values.size(), 2u);
    EXPECT_EQ(values[0], 7u);
    EXPECT_EQ(values[1], 42u);
}

TEST(AdaptiveTest, PeriodicRetraining)
{
    co::AdaptiveTrainPolicy policy;
    policy.warmup_accesses = 500;
    policy.retrain_interval = 1000;
    co::AdaptiveDmcFvcSystem sys(smallDmc(), smallFvc(), policy);
    for (int i = 0; i < 4600; ++i) {
        sys.access({ft::Op::Load,
                    static_cast<ft::Addr>((i % 64) * 4), 0,
                    static_cast<uint64_t>(i)});
    }
    // Warmup training at 500, retrains at 1500, 2500, 3500, 4500.
    EXPECT_EQ(sys.adaptiveStats().trainings, 5u);
}

TEST(AdaptiveTest, PreservesDataIntegrity)
{
    auto profile = fw::specIntProfile(fw::SpecInt::Perl134);
    auto trace = fh::prepareTrace(profile, 40000, 91);
    co::AdaptiveTrainPolicy policy;
    policy.warmup_accesses = 4000;
    policy.retrain_interval = 10000;
    co::AdaptiveDmcFvcSystem sys(smallDmc(), smallFvc(), policy);
    fh::replay(trace, sys);
    bool ok = true;
    trace.final_image.forEachInteresting(
        [&](ft::Addr addr, ft::Word value) {
            if (sys.memoryImage().read(addr) != value)
                ok = false;
        });
    EXPECT_TRUE(ok);
    EXPECT_GE(sys.adaptiveStats().trainings, 2u);
}

TEST(AdaptiveTest, RecoversMostOfOfflineBenefit)
{
    auto profile = fw::specIntProfile(fw::SpecInt::M88ksim124);
    auto trace = fh::prepareTrace(profile, 120000, 92);
    fc::CacheConfig dmc;
    dmc.size_bytes = 16 * 1024;
    dmc.line_bytes = 32;
    co::FvcConfig fvc;
    fvc.entries = 512;
    fvc.line_bytes = 32;
    fvc.code_bits = 3;

    double base = fh::dmcMissRate(trace, dmc);
    auto offline = fh::runDmcFvc(trace, dmc, fvc);
    double off_red =
        base - offline->stats().missRatePercent();

    co::AdaptiveTrainPolicy policy;
    policy.warmup_accesses = 6000;
    co::AdaptiveDmcFvcSystem online(dmc, fvc, policy);
    fh::replay(trace, online);
    double on_red = base - online.stats().missRatePercent();

    EXPECT_GT(off_red, 0.0);
    // Online training should recover at least half the benefit.
    EXPECT_GT(on_red, 0.5 * off_red);
}
