/**
 * @file
 * Unit tests for the util module: bitops, CRC-32, RNG,
 * distributions, stats, strings, and the table renderer.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <set>
#include <vector>

#include "util/bitops.hh"
#include "util/crc32.hh"
#include "util/random.hh"
#include "util/stats.hh"
#include "util/strings.hh"
#include "util/table.hh"

#include "env_guard.hh"

namespace fu = fvc::util;
using fvc::test::EnvGuard;

TEST(BitopsTest, PowerOfTwo)
{
    EXPECT_TRUE(fu::isPowerOf2(1));
    EXPECT_TRUE(fu::isPowerOf2(2));
    EXPECT_TRUE(fu::isPowerOf2(1024));
    EXPECT_TRUE(fu::isPowerOf2(1ull << 63));
    EXPECT_FALSE(fu::isPowerOf2(0));
    EXPECT_FALSE(fu::isPowerOf2(3));
    EXPECT_FALSE(fu::isPowerOf2(1023));
}

TEST(BitopsTest, Logs)
{
    EXPECT_EQ(fu::floorLog2(1), 0u);
    EXPECT_EQ(fu::floorLog2(2), 1u);
    EXPECT_EQ(fu::floorLog2(3), 1u);
    EXPECT_EQ(fu::floorLog2(4096), 12u);
    EXPECT_EQ(fu::ceilLog2(1), 0u);
    EXPECT_EQ(fu::ceilLog2(2), 1u);
    EXPECT_EQ(fu::ceilLog2(3), 2u);
    EXPECT_EQ(fu::ceilLog2(4096), 12u);
    EXPECT_EQ(fu::ceilLog2(4097), 13u);
}

TEST(BitopsTest, MaskAndBits)
{
    EXPECT_EQ(fu::mask(0), 0ull);
    EXPECT_EQ(fu::mask(3), 7ull);
    EXPECT_EQ(fu::mask(32), 0xffffffffull);
    EXPECT_EQ(fu::mask(64), ~0ull);
    EXPECT_EQ(fu::bits(0xdeadbeef, 8, 8), 0xbeull);
    EXPECT_EQ(fu::bits(0xdeadbeef, 0, 4), 0xfull);
}

TEST(BitopsTest, Alignment)
{
    EXPECT_EQ(fu::alignDown(0x1234, 16), 0x1230ull);
    EXPECT_EQ(fu::alignUp(0x1234, 16), 0x1240ull);
    EXPECT_EQ(fu::alignUp(0x1230, 16), 0x1230ull);
    EXPECT_EQ(fu::divCeil(10, 3), 4ull);
    EXPECT_EQ(fu::divCeil(9, 3), 3ull);
}

namespace {

/** A buffer of random bytes whose start is 16-byte aligned, so
 * base() + k starts at alignment k. */
class RandomBytes
{
  public:
    RandomBytes(size_t bytes, uint64_t seed) : store_(bytes + 16)
    {
        fu::Rng rng(seed);
        for (size_t i = 0; i + 8 <= store_.size(); i += 8) {
            const uint64_t word = rng.next64();
            std::memcpy(store_.data() + i, &word, sizeof(word));
        }
    }

    const uint8_t *
    base() const
    {
        const auto addr = reinterpret_cast<uintptr_t>(store_.data());
        return store_.data() + (16 - addr % 16) % 16;
    }

  private:
    std::vector<uint8_t> store_;
};

} // namespace

TEST(Crc32Test, KnownAnswers)
{
    EXPECT_EQ(fu::crc32("", 0), 0u);
    EXPECT_EQ(fu::crc32Portable("", 0), 0u);
    EXPECT_EQ(fu::crc32("123456789", 9), 0xcbf43926u);
    EXPECT_EQ(fu::crc32Portable("123456789", 9), 0xcbf43926u);
}

TEST(Crc32Test, FoldIsDispatchedWhereTheCpuHasIt)
{
    // A fold compiled out (a lost target attribute, a wrong guard)
    // would fall back to the table loop with equal values; only
    // this check would notice.
#if defined(__x86_64__) && defined(__GNUC__)
    __builtin_cpu_init();
    EXPECT_EQ(fu::crc32Folded(), __builtin_cpu_supports("pclmul") &&
                                     __builtin_cpu_supports("sse4.1"));
#else
    EXPECT_FALSE(fu::crc32Folded());
#endif
}

TEST(Crc32Test, FoldMatchesPortableAtEveryAlignment)
{
    constexpr size_t kMiB = size_t{1} << 20;
    const RandomBytes bytes(8 * kMiB + 16, 0xc4c32);
    fu::Rng rng(41);
    for (size_t align = 0; align < 16; ++align) {
        const uint8_t *p = bytes.base() + align;
        for (int trial = 0; trial < 64; ++trial) {
            const size_t len = rng.below(4097);
            const uint32_t seed = rng.next32();
            ASSERT_EQ(fu::crc32(p, len, seed),
                      fu::crc32Portable(p, len, seed))
                << "align " << align << " len " << len;
        }
        const size_t len = kMiB + rng.below(7 * kMiB + 1);
        const uint32_t seed = rng.next32();
        ASSERT_EQ(fu::crc32(p, len, seed),
                  fu::crc32Portable(p, len, seed))
            << "align " << align << " len " << len;
    }
}

TEST(Crc32Test, ChainedSpansEqualOneCall)
{
    const RandomBytes bytes((3 << 20) + 16, 0x5b11);
    fu::Rng rng(43);
    for (int trial = 0; trial < 200; ++trial) {
        const size_t len = trial < 190 ? rng.below(8193)
                                       : rng.below(3 << 20) + 1;
        const uint8_t *p = bytes.base() + rng.below(16);
        std::vector<size_t> cuts = {0, len};
        for (uint64_t k = rng.below(5); k > 0; --k)
            cuts.push_back(rng.below(len + 1));
        std::sort(cuts.begin(), cuts.end());
        uint32_t chained = 0;
        for (size_t c = 1; c < cuts.size(); ++c) {
            chained = fu::crc32(p + cuts[c - 1], cuts[c] - cuts[c - 1],
                                chained);
        }
        ASSERT_EQ(chained, fu::crc32(p, len)) << "len " << len;
    }
}

TEST(RngTest, DeterministicFromSeed)
{
    fu::Rng a(42), b(42), c(43);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next64(), b.next64());
    bool differs = false;
    fu::Rng a2(42);
    for (int i = 0; i < 100; ++i)
        differs |= (a2.next64() != c.next64());
    EXPECT_TRUE(differs);
}

TEST(RngTest, BelowRespectsBound)
{
    fu::Rng rng(7);
    for (uint64_t bound : {1ull, 2ull, 7ull, 1000ull}) {
        for (int i = 0; i < 1000; ++i)
            EXPECT_LT(rng.below(bound), bound);
    }
}

TEST(RngTest, RangeInclusive)
{
    fu::Rng rng(9);
    std::set<int64_t> seen;
    for (int i = 0; i < 2000; ++i) {
        int64_t v = rng.range(-3, 3);
        EXPECT_GE(v, -3);
        EXPECT_LE(v, 3);
        seen.insert(v);
    }
    EXPECT_EQ(seen.size(), 7u);
}

TEST(RngTest, RealInUnitInterval)
{
    fu::Rng rng(11);
    for (int i = 0; i < 1000; ++i) {
        double r = rng.real();
        EXPECT_GE(r, 0.0);
        EXPECT_LT(r, 1.0);
    }
}

TEST(RngTest, ForkIndependence)
{
    fu::Rng a(5);
    fu::Rng forked = a.fork();
    // Forked stream should differ from the parent's continuation.
    bool differs = false;
    for (int i = 0; i < 50; ++i)
        differs |= (a.next64() != forked.next64());
    EXPECT_TRUE(differs);
}

TEST(ZipfTest, UniformWhenSIsZero)
{
    fu::Rng rng(13);
    fu::ZipfSampler zipf(10, 0.0);
    std::vector<uint64_t> counts(10, 0);
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        ++counts[zipf.sample(rng)];
    for (uint64_t c : counts) {
        EXPECT_NEAR(static_cast<double>(c), n / 10.0, n * 0.01);
    }
}

TEST(ZipfTest, SkewPrefersLowRanks)
{
    fu::Rng rng(17);
    fu::ZipfSampler zipf(1000, 1.0);
    uint64_t first = 0, last = 0;
    for (int i = 0; i < 100000; ++i) {
        uint64_t r = zipf.sample(rng);
        if (r == 0)
            ++first;
        if (r == 999)
            ++last;
    }
    EXPECT_GT(first, 50 * std::max<uint64_t>(last, 1));
}

TEST(DiscreteTest, MatchesWeights)
{
    fu::Rng rng(19);
    fu::DiscreteSampler sampler({1.0, 2.0, 7.0});
    std::vector<uint64_t> counts(3, 0);
    const int n = 200000;
    for (int i = 0; i < n; ++i)
        ++counts[sampler.sample(rng)];
    EXPECT_NEAR(counts[0] / static_cast<double>(n), 0.1, 0.01);
    EXPECT_NEAR(counts[1] / static_cast<double>(n), 0.2, 0.01);
    EXPECT_NEAR(counts[2] / static_cast<double>(n), 0.7, 0.01);
}

TEST(DiscreteTest, SingleWeight)
{
    fu::Rng rng(23);
    fu::DiscreteSampler sampler({5.0});
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(sampler.sample(rng), 0u);
}

TEST(DiscreteTest, ZeroWeightNeverSampled)
{
    fu::Rng rng(29);
    fu::DiscreteSampler sampler({1.0, 0.0, 1.0});
    for (int i = 0; i < 10000; ++i)
        EXPECT_NE(sampler.sample(rng), 1u);
}

TEST(RunningStatTest, Moments)
{
    fu::RunningStat s;
    for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
        s.add(x);
    EXPECT_EQ(s.count(), 8u);
    EXPECT_DOUBLE_EQ(s.mean(), 5.0);
    EXPECT_DOUBLE_EQ(s.min(), 2.0);
    EXPECT_DOUBLE_EQ(s.max(), 9.0);
    EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
    EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(RunningStatTest, EmptyIsSafe)
{
    fu::RunningStat s;
    EXPECT_EQ(s.count(), 0u);
    EXPECT_EQ(s.mean(), 0.0);
    EXPECT_EQ(s.variance(), 0.0);
}

TEST(HistogramTest, BucketsAndQuantiles)
{
    fu::Histogram h(0.0, 10.0, 10);
    for (int i = 0; i < 10; ++i)
        h.add(i + 0.5);
    EXPECT_EQ(h.total(), 10u);
    for (size_t i = 0; i < 10; ++i)
        EXPECT_EQ(h.bucketCount(i), 1u);
    EXPECT_NEAR(h.quantile(0.5), 4.5, 1.01);
}

TEST(HistogramTest, OutOfRange)
{
    fu::Histogram h(0.0, 1.0, 4);
    h.add(-5.0);
    h.add(2.0);
    h.add(0.5);
    EXPECT_EQ(h.underflow(), 1u);
    EXPECT_EQ(h.overflow(), 1u);
    EXPECT_EQ(h.total(), 3u);
}

TEST(StatsTest, PercentHelpers)
{
    EXPECT_DOUBLE_EQ(fu::percent(1, 4), 25.0);
    EXPECT_DOUBLE_EQ(fu::percent(0, 0), 0.0);
    EXPECT_DOUBLE_EQ(fu::percentReduction(4.0, 3.0), 25.0);
    EXPECT_DOUBLE_EQ(fu::percentReduction(0.0, 3.0), 0.0);
    EXPECT_LT(fu::percentReduction(2.0, 3.0), 0.0);
}

TEST(StringsTest, Hex32)
{
    EXPECT_EQ(fu::hex32(0), "0");
    EXPECT_EQ(fu::hex32(0xffffffffu), "ffffffff");
    EXPECT_EQ(fu::hex32(0x351a), "351a");
}

TEST(StringsTest, FixedAndCommas)
{
    EXPECT_EQ(fu::fixedStr(1.2345, 2), "1.23");
    EXPECT_EQ(fu::fixedStr(1.0, 3), "1.000");
    EXPECT_EQ(fu::withCommas(0), "0");
    EXPECT_EQ(fu::withCommas(999), "999");
    EXPECT_EQ(fu::withCommas(1234567), "1,234,567");
}

TEST(StringsTest, SizeStr)
{
    EXPECT_EQ(fu::sizeStr(512), "512B");
    EXPECT_EQ(fu::sizeStr(3072), "3Kb");
    EXPECT_EQ(fu::sizeStr(16 * 1024), "16Kb");
    EXPECT_EQ(fu::sizeStr(2 * 1024 * 1024), "2Mb");
    EXPECT_EQ(fu::sizeStr(384), "384B");
    EXPECT_EQ(fu::sizeStr(1536), "1.50Kb");
}

TEST(StringsTest, Padding)
{
    EXPECT_EQ(fu::padLeft("ab", 4), "  ab");
    EXPECT_EQ(fu::padRight("ab", 4), "ab  ");
    EXPECT_EQ(fu::padLeft("abcd", 2), "abcd");
    EXPECT_EQ(fu::join({"a", "b", "c"}, ", "), "a, b, c");
    EXPECT_EQ(fu::join({}, ", "), "");
}

TEST(TableTest, RendersAligned)
{
    fu::Table t({"name", "value"});
    t.alignRight(1);
    t.addRow({"gcc", "3.52"});
    t.addRow({"m88ksim", "1.10"});
    std::string out = t.render();
    EXPECT_NE(out.find("| name    | value |"), std::string::npos);
    EXPECT_NE(out.find("|  3.52 |"), std::string::npos);
    EXPECT_EQ(t.rows(), 2u);
}

TEST(TableTest, SeparatorRows)
{
    fu::Table t({"a"});
    t.addRow({"1"});
    t.addSeparator();
    t.addRow({"2"});
    std::string out = t.render();
    // Header rule + separator + bottom + top = 4 rules.
    size_t rules = 0, pos = 0;
    while ((pos = out.find("+---", pos)) != std::string::npos) {
        ++rules;
        pos += 4;
    }
    EXPECT_EQ(rules, 4u);
}

TEST(TableTest, CsvRendering)
{
    fu::Table t({"name", "value"});
    t.addRow({"plain", "1"});
    t.addSeparator();
    t.addRow({"with,comma", "2"});
    t.addRow({"with\"quote", "3"});
    std::string csv = t.renderCsv();
    EXPECT_EQ(csv,
              "name,value\n"
              "plain,1\n"
              "\"with,comma\",2\n"
              "\"with\"\"quote\",3\n");
}

TEST(TableTest, CsvExportRespectsEnvironment)
{
    fu::Table t({"a"});
    t.addRow({"1"});
    EnvGuard env;
    EXPECT_FALSE(t.exportCsv("util_test_export"));
    std::string dir = ::testing::TempDir();
    EnvGuard::set("FVC_CSV_DIR", dir);
    EXPECT_TRUE(t.exportCsv("util_test_export"));
    std::string path = dir + "/util_test_export.csv";
    std::ifstream in(path);
    std::string header;
    std::getline(in, header);
    EXPECT_EQ(header, "a");
    std::remove(path.c_str());
}

TEST(LoggingTest, WarnCounts)
{
    uint64_t before = fvc::util::warnCount();
    fvc_warn("test warning ", 42);
    EXPECT_EQ(fvc::util::warnCount(), before + 1);
}
