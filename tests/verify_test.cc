/**
 * @file
 * Tests for the verification subsystem: FaultSpec parsing, seeded
 * fault-injection determinism (file corruption included: the trace
 * store must reject what the injector corrupts), and the
 * shadow-model cross-checker — both that it passes on correct
 * systems and that it fails loudly when the injector breaks them.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <string>
#include <vector>

#include "core/dmc_fvc_system.hh"
#include "harness/runner.hh"
#include "harness/trace_repo.hh"
#include "trace/trace_store.hh"
#include "util/error.hh"
#include "verify/fault_injector.hh"
#include "verify/shadow_checker.hh"
#include "workload/fingerprint.hh"
#include "workload/generator.hh"

namespace fv = fvc::verify;
namespace ft = fvc::trace;
namespace fu = fvc::util;
namespace fh = fvc::harness;
namespace fw = fvc::workload;
namespace fc = fvc::cache;
namespace co = fvc::core;
namespace fm = fvc::memmodel;

namespace {

std::string
tempPath(const char *name)
{
    // Per-process names: these tests are built into both fvc_tests
    // and verify_test_asan, and a parallel ctest run executes the
    // two binaries concurrently — fixed paths would race.
    return std::string(::testing::TempDir()) +
           std::to_string(::getpid()) + "_" + name;
}

std::vector<ft::MemRecord>
loadTestRecords(uint32_t n, uint64_t seed = 0)
{
    std::vector<ft::MemRecord> recs;
    recs.reserve(n);
    for (uint32_t i = 0; i < n; ++i) {
        recs.push_back({(i + seed) % 3 == 0 ? ft::Op::Store
                                            : ft::Op::Load,
                        (i % 64) * 4, i * 7 + uint32_t(seed), i});
    }
    return recs;
}

/** A fig-shaped DMC+FVC system for a prepared trace. */
std::unique_ptr<co::DmcFvcSystem>
makeSystem(const fh::PreparedTrace &trace)
{
    fc::CacheConfig dmc;
    dmc.size_bytes = 4 * 1024;
    dmc.line_bytes = 32;
    co::FvcConfig fvc;
    fvc.entries = 128;
    fvc.line_bytes = 32;
    fvc.code_bits = 3;
    return std::make_unique<co::DmcFvcSystem>(
        dmc, fvc,
        co::FrequentValueEncoding(trace.frequent_values, 3));
}

} // namespace

// ---------------------------------------------------------------
// FaultSpec parsing
// ---------------------------------------------------------------

TEST(FaultSpecTest, ParsesFullSpec)
{
    auto spec = fv::FaultSpec::parse(
        "seed=42,rate=0.25,kinds=value|op|drop,sweep_job=5");
    ASSERT_TRUE(spec.ok()) << spec.error().describe();
    EXPECT_EQ(spec.value().seed, 42u);
    EXPECT_DOUBLE_EQ(spec.value().rate, 0.25);
    EXPECT_EQ(spec.value().kinds,
              fv::kFaultValueFlip | fv::kFaultOpMutate |
                  fv::kFaultDrop);
    ASSERT_TRUE(spec.value().sweep_job.has_value());
    EXPECT_EQ(*spec.value().sweep_job, 5u);
}

TEST(FaultSpecTest, EmptySpecIsDefaults)
{
    auto spec = fv::FaultSpec::parse("");
    ASSERT_TRUE(spec.ok());
    EXPECT_EQ(spec.value().seed, 1u);
    EXPECT_DOUBLE_EQ(spec.value().rate, 0.0);
    EXPECT_EQ(spec.value().kinds, fv::kFaultAllRecord);
    EXPECT_FALSE(spec.value().sweep_job.has_value());
}

TEST(FaultSpecTest, KindsAllAndSingles)
{
    auto all = fv::FaultSpec::parse("kinds=all");
    ASSERT_TRUE(all.ok());
    EXPECT_EQ(all.value().kinds, fv::kFaultAllRecord);
    auto dup = fv::FaultSpec::parse("kinds=dup");
    ASSERT_TRUE(dup.ok());
    EXPECT_EQ(dup.value().kinds, fv::kFaultDuplicate);
    auto addr = fv::FaultSpec::parse("kinds=addr");
    ASSERT_TRUE(addr.ok());
    EXPECT_EQ(addr.value().kinds, fv::kFaultAddrFlip);
}

TEST(FaultSpecTest, RejectsMalformedSpecs)
{
    // Unknown keys, bad numbers, and out-of-range rates are Format
    // errors, never silently ignored.
    for (const char *bad :
         {"bogus=1", "seed=abc", "rate=2.0", "rate=-1", "rate=x",
          "kinds=valu", "sweep_job=nope", "seed", "=5"}) {
        auto spec = fv::FaultSpec::parse(bad);
        EXPECT_FALSE(spec.ok()) << "accepted: " << bad;
        if (!spec.ok()) {
            EXPECT_EQ(spec.error().code, fu::ErrorCode::Format);
        }
    }
}

TEST(FaultSpecTest, DescribeRoundTripsThroughParse)
{
    auto spec = fv::FaultSpec::parse("seed=7,rate=0.5,kinds=value");
    ASSERT_TRUE(spec.ok());
    auto again = fv::FaultSpec::parse(spec.value().describe());
    ASSERT_TRUE(again.ok()) << spec.value().describe();
    EXPECT_EQ(again.value().seed, 7u);
    EXPECT_EQ(again.value().kinds, unsigned(fv::kFaultValueFlip));
}

// ---------------------------------------------------------------
// FaultInjector determinism
// ---------------------------------------------------------------

TEST(FaultInjectorTest, SameSeedSameFaults)
{
    auto spec = fv::FaultSpec::parse("seed=11,rate=0.1").value();
    auto a = loadTestRecords(500);
    auto b = loadTestRecords(500);
    uint64_t fa = fv::FaultInjector(spec).mutateRecords(a);
    uint64_t fb = fv::FaultInjector(spec).mutateRecords(b);
    EXPECT_EQ(fa, fb);
    EXPECT_GT(fa, 0u);
    EXPECT_EQ(a, b);
}

TEST(FaultInjectorTest, DifferentSeedsDiverge)
{
    auto s1 = fv::FaultSpec::parse("seed=1,rate=0.1").value();
    auto s2 = fv::FaultSpec::parse("seed=2,rate=0.1").value();
    auto a = loadTestRecords(500);
    auto b = loadTestRecords(500);
    fv::FaultInjector(s1).mutateRecords(a);
    fv::FaultInjector(s2).mutateRecords(b);
    EXPECT_NE(a, b);
}

TEST(FaultInjectorTest, ZeroRateIsIdentityOnRecords)
{
    auto spec = fv::FaultSpec::parse("seed=3,rate=0").value();
    auto recs = loadTestRecords(100);
    auto orig = recs;
    EXPECT_EQ(fv::FaultInjector(spec).mutateRecords(recs), 0u);
    EXPECT_EQ(recs, orig);
}

TEST(FaultInjectorTest, DropKindShrinksTheTrace)
{
    auto spec =
        fv::FaultSpec::parse("seed=5,rate=1.0,kinds=drop").value();
    auto recs = loadTestRecords(100);
    fv::FaultInjector(spec).mutateRecords(recs);
    EXPECT_TRUE(recs.empty());
}

TEST(FaultInjectorTest, DuplicateKindGrowsTheTrace)
{
    auto spec =
        fv::FaultSpec::parse("seed=5,rate=1.0,kinds=dup").value();
    auto recs = loadTestRecords(100);
    fv::FaultInjector(spec).mutateRecords(recs);
    EXPECT_EQ(recs.size(), 200u);
}

TEST(FaultInjectorTest, ValueFlipPreservesShape)
{
    auto spec =
        fv::FaultSpec::parse("seed=5,rate=1.0,kinds=value").value();
    auto recs = loadTestRecords(64);
    auto orig = recs;
    fv::FaultInjector(spec).mutateRecords(recs);
    ASSERT_EQ(recs.size(), orig.size());
    for (size_t i = 0; i < recs.size(); ++i) {
        EXPECT_EQ(recs[i].op, orig[i].op);
        EXPECT_EQ(recs[i].addr, orig[i].addr);
        EXPECT_NE(recs[i].value, orig[i].value);
    }
}

TEST(FaultInjectorTest, CorruptBytesAlwaysFlipsSomething)
{
    auto spec = fv::FaultSpec::parse("seed=9,rate=0").value();
    std::vector<uint8_t> data(256, 0xAB);
    auto orig = data;
    uint64_t flips =
        fv::FaultInjector(spec).corruptBytes(data.data(),
                                             data.size());
    EXPECT_GE(flips, 1u);
    EXPECT_NE(data, orig);
}

TEST(FaultInjectorTest, CorruptMemoryWordIsSeedDeterministic)
{
    auto spec = fv::FaultSpec::parse("seed=21").value();
    fm::FunctionalMemory a, b;
    for (uint32_t i = 0; i < 32; ++i) {
        a.write(i * 4, i);
        b.write(i * 4, i);
    }
    ASSERT_TRUE(fv::FaultInjector(spec).corruptMemoryWord(a));
    ASSERT_TRUE(fv::FaultInjector(spec).corruptMemoryWord(b));
    EXPECT_TRUE(fm::FunctionalMemory::sameInterestingContents(a, b));
    // And the corruption really changed one word.
    uint32_t diffs = 0;
    for (uint32_t i = 0; i < 32; ++i) {
        if (a.read(i * 4) != i)
            ++diffs;
    }
    EXPECT_EQ(diffs, 1u);
}

TEST(FaultInjectorTest, CorruptMemoryWordNeedsInterestingWords)
{
    auto spec = fv::FaultSpec::parse("seed=21").value();
    fm::FunctionalMemory empty;
    EXPECT_FALSE(fv::FaultInjector(spec).corruptMemoryWord(empty));
}

// ---------------------------------------------------------------
// Trace-file corruption
// ---------------------------------------------------------------

TEST(TraceIntegrityTest, CorruptFileHelperTripsTheReader)
{
    // The store's own bit-flip sweep lives in trace_store_test.cc;
    // this checks that the injector's file corruption reaches it.
    auto profile = fw::specIntProfile(fw::SpecInt::Li130);
    auto trace = fh::prepareTrace(profile, 2000, 17, 10);
    fh::TraceKey key{profile.name, fw::profileFingerprint(profile),
                     2000, 17, 10};
    std::string path = tempPath("corrupt_helper.fvcs");
    auto saved = fh::saveTraceFile(path, trace, key);
    ASSERT_FALSE(saved.has_value()) << saved->describe();
    ASSERT_TRUE(fh::loadTraceFile(path).ok());

    auto spec = fv::FaultSpec::parse("seed=17,rate=0.001").value();
    auto flips = fv::FaultInjector(spec).corruptFile(
        path, sizeof(ft::StoreHeader));
    ASSERT_TRUE(flips.ok()) << flips.error().describe();
    EXPECT_GE(flips.value(), 1u);

    // The header is intact, so every flipped byte lies under a CRC.
    auto loaded = fh::loadTraceFile(path);
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.error().code, fu::ErrorCode::Corrupt)
        << loaded.error().describe();
    std::remove(path.c_str());
}

// ---------------------------------------------------------------
// Shadow checker
// ---------------------------------------------------------------

TEST(ShadowCheckerTest, PassesOnEveryBenchmarkProfile)
{
    // The full-system gate: on every SPECint95 profile a DMC+FVC
    // replay must agree with the functional shadow, access by
    // access and in the final image.
    for (fw::SpecInt bench : fw::allSpecInt()) {
        auto profile = fw::specIntProfile(bench);
        auto trace = fh::prepareTrace(profile, 20000, 7);
        auto records = trace.columns.materializeRecords();
        auto sys = makeSystem(trace);
        fv::ShadowChecker checker;
        auto report = checker.checkReplay(
            records, trace.initial_image, *sys);
        checker.checkEncoding(
            co::FrequentValueEncoding(trace.frequent_values, 3));
        EXPECT_TRUE(report.passed())
            << fw::specIntName(bench) << ": " << report.summary()
            << (report.messages.empty() ? ""
                                        : "\n  " + report.messages[0]);
        EXPECT_GT(report.accesses_checked, 0u);
    }
}

TEST(ShadowCheckerTest, CatchesInjectorCorruptedFvcState)
{
    auto profile = fw::specIntProfile(fw::SpecInt::Gcc126);
    auto trace = fh::prepareTrace(profile, 20000, 7);
    auto records = trace.columns.materializeRecords();
    auto sys = makeSystem(trace);
    auto spec = fv::FaultSpec::parse("seed=13").value();
    fv::FaultInjector injector(spec);

    uint64_t discarded = 0;
    fv::ShadowChecker checker;
    auto report = checker.checkReplay(
        records, trace.initial_image, *sys,
        [&](uint64_t index, fc::CacheSystem &) {
            if (index == records.size() / 2)
                discarded = injector.discardFvcState(*sys);
        });
    // Discarding dirty FVC entries mid-replay loses the newest
    // values of frequent-coded words; the checker must notice.
    ASSERT_GT(discarded, 0u)
        << "fixture too small: no dirty FVC entries at midpoint";
    EXPECT_FALSE(report.passed()) << report.summary();
    EXPECT_GT(report.load_divergences + report.image_divergences, 0u);
    EXPECT_FALSE(report.messages.empty());
}

TEST(ShadowCheckerTest, CatchesCorruptedMemoryImage)
{
    auto profile = fw::specIntProfile(fw::SpecInt::Compress129);
    auto trace = fh::prepareTrace(profile, 15000, 7);
    auto records = trace.columns.materializeRecords();
    auto sys = makeSystem(trace);
    auto spec = fv::FaultSpec::parse("seed=29").value();
    fv::FaultInjector injector(spec);

    fv::ShadowChecker checker;
    auto report = checker.checkReplay(
        records, trace.initial_image, *sys,
        [&](uint64_t index, fc::CacheSystem &system) {
            // Flip bits in several backing-store words near the
            // end, after most lines have been fetched; at least
            // one lands in a word the trace still reads or the
            // final image check covers.
            if (index == (records.size() * 3) / 4) {
                for (int i = 0; i < 8; ++i)
                    injector.corruptMemoryWord(system.memoryImage());
            }
        });
    EXPECT_FALSE(report.passed()) << report.summary();
}

namespace {

/** A deliberately broken system: drops every Nth store. */
class DroppedStoreSystem final : public fc::CacheSystem
{
  public:
    DroppedStoreSystem(std::unique_ptr<co::DmcFvcSystem> inner,
                       uint64_t drop_every)
        : inner_(std::move(inner)), drop_every_(drop_every)
    {
    }

    fc::AccessResult
    access(const ft::MemRecord &rec) override
    {
        if (rec.isStore() && ++stores_ % drop_every_ == 0)
            return fc::AccessResult{};
        return inner_->access(rec);
    }

    void flush() override { inner_->flush(); }
    const fc::CacheStats &stats() const override
    {
        return inner_->stats();
    }
    std::string describe() const override
    {
        return "dropped-store(" + inner_->describe() + ")";
    }
    fvc::memmodel::FunctionalMemory &memoryImage() override
    {
        return inner_->memoryImage();
    }

  private:
    std::unique_ptr<co::DmcFvcSystem> inner_;
    uint64_t drop_every_;
    uint64_t stores_ = 0;
};

} // namespace

TEST(ShadowCheckerTest, CatchesBrokenStorePath)
{
    auto profile = fw::specIntProfile(fw::SpecInt::Li130);
    auto trace = fh::prepareTrace(profile, 15000, 7);
    DroppedStoreSystem sys(makeSystem(trace), 16);
    fv::ShadowChecker checker;
    auto report = checker.checkReplay(
        trace.columns.materializeRecords(), trace.initial_image,
        sys);
    EXPECT_FALSE(report.passed()) << report.summary();
    EXPECT_GT(report.load_divergences + report.image_divergences, 0u);
}

TEST(ShadowCheckerTest, FlagsMutatedTraceRecords)
{
    auto profile = fw::specIntProfile(fw::SpecInt::Go099);
    auto trace = fh::prepareTrace(profile, 10000, 7);
    auto spec =
        fv::FaultSpec::parse("seed=31,rate=0.01,kinds=value")
            .value();
    auto mutated = trace.columns.materializeRecords();
    ASSERT_GT(fv::FaultInjector(spec).mutateRecords(mutated), 0u);

    auto sys = makeSystem(trace);
    fv::ShadowChecker checker;
    auto report = checker.checkReplay(mutated, trace.initial_image,
                                      *sys);
    EXPECT_GT(report.trace_divergences, 0u) << report.summary();
}

TEST(ShadowCheckerTest, EncodingRoundTripChecks)
{
    co::FrequentValueEncoding enc({0, 1, 0xffffffff, 7, 42}, 3);
    fv::ShadowChecker checker;
    checker.checkEncoding(enc);
    EXPECT_EQ(checker.report().encoding_failures, 0u);
}

TEST(ShadowReportTest, SummaryStatesPassAndFailure)
{
    fv::ShadowReport report;
    report.accesses_checked = 10;
    EXPECT_NE(report.summary().find("passed"), std::string::npos);
    report.load_divergences = 2;
    EXPECT_FALSE(report.passed());
    EXPECT_NE(report.summary().find("FAILED"), std::string::npos);
}
