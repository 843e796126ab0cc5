/**
 * @file
 * Unit tests for the profiling module: value tables, sketches,
 * access profiling/stability, occurrence sampling, constancy, and
 * uniformity.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

#include "memmodel/functional_memory.hh"
#include "profiling/access_profiler.hh"
#include "profiling/constancy.hh"
#include "profiling/occurrence_sampler.hh"
#include "profiling/uniformity.hh"
#include "profiling/value_table.hh"
#include "util/random.hh"

namespace fp = fvc::profiling;
namespace ft = fvc::trace;
namespace fm = fvc::memmodel;

TEST(ValueCounterTableTest, CountsAndTopK)
{
    fp::ValueCounterTable t;
    for (int i = 0; i < 10; ++i)
        t.add(0);
    for (int i = 0; i < 5; ++i)
        t.add(1);
    t.add(2);
    EXPECT_EQ(t.total(), 16u);
    EXPECT_EQ(t.distinct(), 3u);
    EXPECT_EQ(t.countOf(0), 10u);
    EXPECT_EQ(t.countOf(99), 0u);

    auto top = t.topK(2);
    ASSERT_EQ(top.size(), 2u);
    EXPECT_EQ(top[0].value, 0u);
    EXPECT_EQ(top[0].count, 10u);
    EXPECT_EQ(top[1].value, 1u);
    EXPECT_EQ(t.topKMass(2), 15u);
}

TEST(ValueCounterTableTest, TopKLargerThanDistinct)
{
    fp::ValueCounterTable t;
    t.add(7);
    auto top = t.topK(10);
    ASSERT_EQ(top.size(), 1u);
    EXPECT_EQ(top[0].value, 7u);
}

TEST(ValueCounterTableTest, DeterministicTieBreak)
{
    fp::ValueCounterTable t;
    t.add(5);
    t.add(3);
    t.add(9);
    auto top = t.topK(3);
    EXPECT_EQ(top[0].value, 3u);
    EXPECT_EQ(top[1].value, 5u);
    EXPECT_EQ(top[2].value, 9u);
}

namespace {

/** Checks @p table against an ordered-map count of the same
 * stream: totals, every count, absent values and every ranking. */
void
expectMatchesReference(const fp::ValueCounterTable &table,
                       const std::map<ft::Word, uint64_t> &ref,
                       fvc::util::Rng &rng)
{
    uint64_t total = 0;
    for (const auto &[value, count] : ref) {
        total += count;
        ASSERT_EQ(table.countOf(value), count) << value;
    }
    EXPECT_EQ(table.total(), total);
    EXPECT_EQ(table.distinct(), ref.size());
    for (int i = 0; i < 1000; ++i) {
        const ft::Word absent = rng.next32();
        if (!ref.count(absent)) {
            EXPECT_EQ(table.countOf(absent), 0u) << absent;
        }
    }

    // The reference ranking: by count, ties by ascending value (the
    // map iterates in ascending value; the sort is stable).
    std::vector<fp::ValueCount> ranked;
    for (const auto &[value, count] : ref)
        ranked.push_back({value, count});
    std::stable_sort(ranked.begin(), ranked.end(),
                     [](const fp::ValueCount &a,
                        const fp::ValueCount &b) {
                         return a.count > b.count;
                     });
    for (size_t k : {size_t{0}, size_t{1}, size_t{3}, size_t{7},
                     size_t{10}, ref.size(), ref.size() + 5}) {
        const size_t n = std::min(k, ranked.size());
        const std::vector<fp::ValueCount> want(ranked.begin(),
                                               ranked.begin() + n);
        EXPECT_EQ(table.topK(k), want) << "k=" << k;
        uint64_t mass = 0;
        for (const auto &vc : want)
            mass += vc.count;
        EXPECT_EQ(table.topKMass(k), mass) << "k=" << k;
    }
}

/** A shuffled stream with 0 and 0xFFFFFFFF, a 12-way tie at the
 * top, a 50-way tie below it, and >= 100k mostly-once values. */
std::vector<ft::Word>
tiedStream(fvc::util::Rng &rng, size_t tail)
{
    std::vector<ft::Word> hot = {0, 0xFFFFFFFFu};
    while (hot.size() < 12)
        hot.push_back(rng.next32());
    std::vector<ft::Word> stream;
    for (ft::Word v : hot)
        stream.insert(stream.end(), 40, v);
    for (int i = 0; i < 50; ++i)
        stream.insert(stream.end(), 7, rng.next32());
    for (size_t i = 0; i < tail; ++i)
        stream.push_back(rng.next32());
    for (size_t i = stream.size() - 1; i > 0; --i)
        std::swap(stream[i], stream[rng.below(i + 1)]);
    return stream;
}

} // namespace

TEST(ValueCounterTableTest, MatchesOrderedReference)
{
    fvc::util::Rng rng(17);
    fp::ValueCounterTable table;
    for (size_t tail : {size_t{120000}, size_t{30000}}) {
        std::map<ft::Word, uint64_t> ref;
        for (ft::Word v : tiedStream(rng, tail)) {
            table.add(v);
            ++ref[v];
        }
        ASSERT_GE(ref.size(), tail * 9 / 10);
        expectMatchesReference(table, ref, rng);

        // Reuse after clear() starts from empty.
        table.clear();
        EXPECT_EQ(table.total(), 0u);
        EXPECT_EQ(table.distinct(), 0u);
        EXPECT_EQ(table.countOf(0), 0u);
        EXPECT_TRUE(table.topK(10).empty());
    }
}

TEST(SpaceSavingTest, FindsHeavyHitters)
{
    fp::SpaceSavingSketch sketch(8);
    fvc::util::Rng rng(3);
    // Two heavy values amid noise.
    for (int i = 0; i < 10000; ++i) {
        sketch.add(100);
        if (i % 2 == 0)
            sketch.add(200);
        sketch.add(rng.next32() | 0x80000000u);
    }
    auto top = sketch.topK(2);
    ASSERT_EQ(top.size(), 2u);
    EXPECT_EQ(top[0].value, 100u);
    EXPECT_EQ(top[1].value, 200u);
}

TEST(SpaceSavingTest, NeverExceedsCapacity)
{
    fp::SpaceSavingSketch sketch(4);
    for (uint32_t v = 0; v < 1000; ++v)
        sketch.add(v);
    EXPECT_EQ(sketch.topK(100).size(), 4u);
    EXPECT_EQ(sketch.total(), 1000u);
}

TEST(AccessProfilerTest, CountsOnlyAccesses)
{
    fp::AccessProfiler profiler({1});
    profiler.observe({ft::Op::Load, 0, 5, 1});
    profiler.observe({ft::Op::Alloc, 0, 64, 1});
    profiler.observe({ft::Op::Store, 4, 5, 2});
    EXPECT_EQ(profiler.accesses(), 2u);
    EXPECT_EQ(profiler.table().countOf(5), 2u);
}

TEST(AccessProfilerTest, TopKValuesInRankOrder)
{
    fp::AccessProfiler profiler({1});
    for (int i = 0; i < 10; ++i)
        profiler.observe({ft::Op::Load, 0, 1, 1});
    for (int i = 0; i < 20; ++i)
        profiler.observe({ft::Op::Load, 0, 2, 1});
    auto top = profiler.topKValues(2);
    ASSERT_EQ(top.size(), 2u);
    EXPECT_EQ(top[0], 2u);
    EXPECT_EQ(top[1], 1u);
}

TEST(AccessProfilerTest, StabilityDetectsLateChange)
{
    fp::AccessProfiler profiler({1});
    // Value 1 dominates early; value 2 overtakes late.
    uint64_t ic = 0;
    for (int i = 0; i < 20000; ++i)
        profiler.observe({ft::Op::Load, 0, 1, ++ic});
    for (int i = 0; i < 50000; ++i)
        profiler.observe({ft::Op::Load, 0, 2, ++ic});
    EXPECT_GT(profiler.lastOrderChange(1), 20000u);
    EXPECT_GT(profiler.lastSetChange(1), 0u);
}

TEST(AccessProfilerTest, StableStreamSettlesEarly)
{
    fp::AccessProfiler profiler({1, 3});
    fvc::util::Rng rng(5);
    uint64_t ic = 0;
    for (int i = 0; i < 100000; ++i) {
        // Fixed popularity ranking throughout.
        fvc::trace::Word v =
            rng.chance(0.6) ? 0 : (rng.chance(0.5) ? 1 : 2);
        profiler.observe({ft::Op::Load, 0, v, ++ic});
    }
    // The ordered top-3 list should have settled in the first
    // quarter of the run.
    EXPECT_LT(profiler.lastOrderChange(3), ic / 4);
}

TEST(OccurrenceSamplerTest, SamplesAtInterval)
{
    fm::FunctionalMemory mem;
    mem.write(0x100, 7);
    fp::OccurrenceSampler sampler(1000);
    sampler.maybeSample(mem, 500);
    EXPECT_EQ(sampler.sampleCount(), 0u);
    sampler.maybeSample(mem, 1000);
    EXPECT_EQ(sampler.sampleCount(), 1u);
    sampler.maybeSample(mem, 1500);
    EXPECT_EQ(sampler.sampleCount(), 1u);
    sampler.maybeSample(mem, 2100);
    EXPECT_EQ(sampler.sampleCount(), 2u);
}

TEST(OccurrenceSamplerTest, TopKFractionOfUniformMemory)
{
    fm::FunctionalMemory mem;
    // 60 words of value 0, 40 words of distinct values.
    for (uint32_t i = 0; i < 60; ++i)
        mem.write(i * 4, 0);
    for (uint32_t i = 60; i < 100; ++i)
        mem.write(i * 4, 1000 + i);
    fp::OccurrenceSampler sampler(10);
    sampler.sample(mem, 10);
    EXPECT_NEAR(sampler.averageTopKFraction(1), 0.60, 1e-9);
    auto &samples = sampler.samples();
    ASSERT_EQ(samples.size(), 1u);
    EXPECT_EQ(samples[0].total_locations, 100u);
    EXPECT_EQ(samples[0].top1, 60u);
    EXPECT_EQ(samples[0].distinct_values, 41u);
}

TEST(OccurrenceSamplerTest, AveragesAcrossSnapshots)
{
    fm::FunctionalMemory mem;
    mem.write(0, 5);
    fp::OccurrenceSampler sampler(10);
    sampler.sample(mem, 10); // 100% value 5
    mem.write(4, 6);
    sampler.sample(mem, 20); // 50% value 5
    EXPECT_NEAR(sampler.averageTopKFraction(1), 0.75, 1e-9);
}

TEST(ConstancyTest, ConstantAndChanged)
{
    fp::ConstancyTracker t;
    t.observe({ft::Op::Store, 0x100, 5, 1});
    t.observe({ft::Op::Load, 0x100, 5, 2});
    t.observe({ft::Op::Store, 0x104, 7, 3});
    t.observe({ft::Op::Store, 0x104, 8, 4});
    EXPECT_EQ(t.instances(), 2u);
    EXPECT_EQ(t.constantInstances(), 1u);
    EXPECT_DOUBLE_EQ(t.constantPercent(), 50.0);
}

TEST(ConstancyTest, RewriteOfSameValueStaysConstant)
{
    fp::ConstancyTracker t;
    t.observe({ft::Op::Store, 0x100, 5, 1});
    t.observe({ft::Op::Store, 0x100, 5, 2});
    EXPECT_EQ(t.constantInstances(), 1u);
}

TEST(ConstancyTest, ReallocationSeparatesInstances)
{
    fp::ConstancyTracker t;
    t.observe({ft::Op::Store, 0x100, 5, 1});
    t.observe({ft::Op::Store, 0x100, 6, 2}); // changed
    t.observe({ft::Op::Free, 0x100, 4, 3});
    t.observe({ft::Op::Alloc, 0x100, 4, 4});
    t.observe({ft::Op::Store, 0x100, 9, 5}); // fresh instance
    EXPECT_EQ(t.instances(), 1u);            // live instance
    // Retired: 1 changed; live: 1 constant.
    EXPECT_DOUBLE_EQ(t.constantPercent(), 50.0);
}

TEST(ConstancyTest, InitialImageEstablishesValue)
{
    fm::FunctionalMemory image;
    image.write(0x100, 5);
    fp::ConstancyTracker t(&image);
    // First trace event is an overwriting store: counts as change.
    t.observe({ft::Op::Store, 0x100, 6, 1});
    EXPECT_EQ(t.constantInstances(), 0u);
}

TEST(ConstancyTest, InitialImageIgnoredAfterRealloc)
{
    fm::FunctionalMemory image;
    image.write(0x100, 5);
    fp::ConstancyTracker t(&image);
    t.observe({ft::Op::Load, 0x100, 5, 1});
    t.observe({ft::Op::Free, 0x100, 4, 2});
    // New epoch: the first store establishes (image is stale).
    t.observe({ft::Op::Store, 0x100, 9, 3});
    EXPECT_EQ(t.constantInstances(), 2u); // retired + live
}

TEST(UniformityTest, CountsFrequentPerLine)
{
    fm::FunctionalMemory mem;
    // One 800-word block: every other word holds frequent value 0.
    for (uint32_t i = 0; i < 800; ++i)
        mem.write(i * 4, i % 2 == 0 ? 0 : 1000 + i);
    auto blocks = fp::analyzeUniformity(mem, {0}, 800, 8);
    ASSERT_EQ(blocks.size(), 1u);
    EXPECT_EQ(blocks[0].words_present, 800u);
    EXPECT_NEAR(blocks[0].avg_frequent_per_line, 4.0, 1e-9);
}

TEST(UniformityTest, SummaryAcrossBlocks)
{
    fm::FunctionalMemory mem;
    // Block 0: all frequent; block 1: none.
    for (uint32_t i = 0; i < 800; ++i)
        mem.write(i * 4, 0);
    for (uint32_t i = 800; i < 1600; ++i)
        mem.write(i * 4, 0x12345678);
    auto blocks = fp::analyzeUniformity(mem, {0}, 800, 8);
    auto summary = fp::summarizeUniformity(blocks);
    EXPECT_EQ(summary.blocks, 2u);
    EXPECT_NEAR(summary.mean, 4.0, 1e-9);
    EXPECT_NEAR(summary.stddev, 4.0, 1e-9);
}

TEST(UniformityTest, EmptyMemory)
{
    fm::FunctionalMemory mem;
    auto blocks = fp::analyzeUniformity(mem, {0});
    EXPECT_TRUE(blocks.empty());
    auto summary = fp::summarizeUniformity(blocks);
    EXPECT_EQ(summary.blocks, 0u);
    EXPECT_EQ(summary.mean, 0.0);
}
