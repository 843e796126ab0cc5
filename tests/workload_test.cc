/**
 * @file
 * Unit tests for the workload module: value pools, kernels via a
 * test emitter, profiles, and the synthetic generator.
 */

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <vector>

#include "memmodel/functional_memory.hh"
#include "workload/generator.hh"
#include "workload/kernels.hh"
#include "workload/profile.hh"
#include "workload/value_pool.hh"

namespace fw = fvc::workload;
namespace fm = fvc::memmodel;
namespace ft = fvc::trace;

namespace {

/** Every record @p gen produces, in order. */
std::vector<ft::MemRecord>
allRecords(fw::SyntheticWorkload &gen)
{
    std::vector<ft::MemRecord> out;
    ft::MemRecord rec;
    while (gen.next(rec))
        out.push_back(rec);
    return out;
}

fw::ValuePoolSpec
simpleSpec(double mass = 0.6)
{
    fw::ValuePoolSpec spec;
    spec.frequent = {{0, 0.5}, {1, 0.3}, {0xffffffffu, 0.2}};
    spec.frequent_mass = mass;
    spec.tails = {{fw::TailKind::RandomWord, 1.0, 0, 0}};
    return spec;
}

/** Minimal emitter for exercising kernels directly. */
class TestEmitter : public fw::Emitter
{
  public:
    explicit TestEmitter(double mutate = 0.5)
        : pool_(simpleSpec()), rng_(7), mutate_(mutate)
    {}

    fw::Word
    load(fw::Addr addr) override
    {
        records.push_back({ft::Op::Load, addr,
                           memory.readReferenced(addr), ++icount});
        return records.back().value;
    }

    void
    store(fw::Addr addr, fw::Word value) override
    {
        memory.write(addr, value);
        records.push_back({ft::Op::Store, addr, value, ++icount});
    }

    void
    alloc(fw::Addr base, uint64_t bytes) override
    {
        memory.allocRegion(base, bytes);
        allocs.push_back({base, bytes});
    }

    void
    free(fw::Addr base, uint64_t bytes) override
    {
        memory.freeRegion(base, bytes);
        frees.push_back({base, bytes});
    }

    fw::Word peek(fw::Addr addr) const override
    {
        return memory.read(addr);
    }
    fw::ValuePool &pool() override { return pool_; }
    fvc::util::Rng &rng() override { return rng_; }
    double mutateFraction() const override { return mutate_; }

    fm::FunctionalMemory memory;
    std::vector<ft::MemRecord> records;
    std::vector<std::pair<fw::Addr, uint64_t>> allocs;
    std::vector<std::pair<fw::Addr, uint64_t>> frees;
    uint64_t icount = 0;

  private:
    fw::ValuePool pool_;
    fvc::util::Rng rng_;
    double mutate_;
};

} // namespace

TEST(ValuePoolTest, FrequentMassRespected)
{
    fw::ValuePool pool(simpleSpec(0.7));
    fvc::util::Rng rng(3);
    std::set<fw::Word> freq = {0, 1, 0xffffffffu};
    uint64_t hits = 0;
    const int n = 100000;
    for (int i = 0; i < n; ++i) {
        if (freq.count(pool.sample(rng)))
            ++hits;
    }
    // Tail RandomWord collides with the frequent set negligibly.
    EXPECT_NEAR(static_cast<double>(hits) / n, 0.7, 0.02);
}

TEST(ValuePoolTest, SampleFrequentOnlyYieldsFrequent)
{
    fw::ValuePool pool(simpleSpec());
    fvc::util::Rng rng(5);
    std::set<fw::Word> freq = {0, 1, 0xffffffffu};
    for (int i = 0; i < 1000; ++i)
        EXPECT_TRUE(freq.count(pool.sampleFrequent(rng)));
}

TEST(ValuePoolTest, RankedFrequentSortedByWeight)
{
    fw::ValuePool pool(simpleSpec());
    const auto &ranked = pool.rankedFrequent();
    ASSERT_EQ(ranked.size(), 3u);
    EXPECT_EQ(ranked[0].value, 0u);
    EXPECT_EQ(ranked[1].value, 1u);
    EXPECT_EQ(ranked[2].value, 0xffffffffu);
}

TEST(ValuePoolTest, TailKinds)
{
    fw::ValuePoolSpec spec;
    spec.frequent = {{0, 1.0}};
    spec.frequent_mass = 0.0;
    spec.tails = {
        {fw::TailKind::SmallInt, 1.0, 0, 16},
    };
    fw::ValuePool pool(spec);
    fvc::util::Rng rng(9);
    for (int i = 0; i < 1000; ++i)
        EXPECT_LT(pool.sample(rng), 16u);
}

TEST(ValuePoolTest, CounterTailIsMonotonic)
{
    fw::ValuePoolSpec spec;
    spec.frequent = {{0, 1.0}};
    spec.frequent_mass = 0.0;
    spec.tails = {{fw::TailKind::Counter, 1.0, 100, 0}};
    fw::ValuePool pool(spec);
    fvc::util::Rng rng(1);
    fw::Word prev = pool.sample(rng);
    for (int i = 0; i < 100; ++i) {
        fw::Word next = pool.sample(rng);
        EXPECT_EQ(next, prev + 1);
        prev = next;
    }
}

TEST(ValuePoolTest, PointerLikeTailIsAlignedAndInRange)
{
    fw::ValuePoolSpec spec;
    spec.frequent = {{0, 1.0}};
    spec.frequent_mass = 0.0;
    spec.tails = {{fw::TailKind::PointerLike, 1.0, 0x40000000,
                   0x1000}};
    fw::ValuePool pool(spec);
    fvc::util::Rng rng(2);
    for (int i = 0; i < 1000; ++i) {
        fw::Word v = pool.sample(rng);
        EXPECT_EQ(v % 4, 0u);
        EXPECT_GE(v, 0x40000000u);
        EXPECT_LT(v, 0x40001000u);
    }
}

TEST(ValuePoolTest, SmallIntFrequentSetShape)
{
    auto set = fw::smallIntFrequentSet(10, 0.4);
    ASSERT_EQ(set.size(), 10u);
    EXPECT_EQ(set[0].value, 0u);
    EXPECT_DOUBLE_EQ(set[0].weight, 0.4);
    EXPECT_EQ(set[1].value, 0xffffffffu);
    for (size_t i = 2; i < set.size(); ++i)
        EXPECT_LT(set[i].weight, set[i - 1].weight);
}

TEST(HotSpotKernelTest, StaysInRegion)
{
    fw::HotSpotParams params;
    params.base = 0x1000;
    params.words = 256;
    TestEmitter em;
    fw::HotSpotKernel kernel(params);
    kernel.init(em);
    for (int i = 0; i < 50; ++i)
        kernel.step(em);
    for (const auto &rec : em.records) {
        EXPECT_GE(rec.addr, 0x1000u);
        EXPECT_LT(rec.addr, 0x1000u + 256 * 4);
    }
}

TEST(ScanKernelTest, SequentialWrapAround)
{
    fw::ScanParams params;
    params.base = 0x2000;
    params.words = 8;
    params.write_fraction = 0.0;
    params.burst = 16;
    TestEmitter em;
    fw::ScanKernel kernel(params);
    kernel.step(em);
    ASSERT_EQ(em.records.size(), 16u);
    for (size_t i = 0; i < em.records.size(); ++i) {
        EXPECT_EQ(em.records[i].addr, 0x2000u + (i % 8) * 4);
        EXPECT_TRUE(em.records[i].isLoad());
    }
}

TEST(ScanKernelTest, RmwLoadsBeforeStores)
{
    fw::ScanParams params;
    params.write_fraction = 1.0;
    params.words = 64;
    TestEmitter em(1.0);
    fw::ScanKernel kernel(params);
    kernel.step(em);
    // Every store must be preceded by a load of the same address.
    for (size_t i = 0; i < em.records.size(); ++i) {
        if (em.records[i].isStore()) {
            ASSERT_GT(i, 0u);
            EXPECT_TRUE(em.records[i - 1].isLoad());
            EXPECT_EQ(em.records[i - 1].addr, em.records[i].addr);
        }
    }
}

TEST(ConflictKernelTest, VisitsAliasingBlocks)
{
    fw::ConflictParams params;
    params.base = 0x3000;
    params.num_blocks = 2;
    params.stride_bytes = 0x10000;
    params.block_words = 8;
    params.touches = 4;
    params.write_fraction = 0.0;
    TestEmitter em;
    fw::ConflictKernel kernel(params);
    kernel.init(em);
    em.records.clear();
    kernel.step(em);
    kernel.step(em);
    // First visit in block 0, second in block 1.
    for (int i = 0; i < 4; ++i) {
        EXPECT_GE(em.records[i].addr, 0x3000u);
        EXPECT_LT(em.records[i].addr, 0x3000u + 32);
    }
    for (int i = 4; i < 8; ++i) {
        EXPECT_GE(em.records[i].addr, 0x13000u);
        EXPECT_LT(em.records[i].addr, 0x13000u + 32);
    }
}

TEST(PointerChaseKernelTest, ChaseFollowsStoredPointers)
{
    fw::PointerChaseParams params;
    params.heap_base = 0x40000000;
    params.num_nodes = 64;
    params.node_words = 4;
    params.hops = 16;
    params.write_fraction = 0.0;
    TestEmitter em;
    fw::PointerChaseKernel kernel(params);
    kernel.init(em);
    em.records.clear();
    kernel.step(em);
    // Each hop reads the next pointer (word 0 of a node) and one
    // data word of the same node.
    ASSERT_EQ(em.records.size(), 2u * params.hops);
    for (size_t i = 0; i < em.records.size(); i += 2) {
        EXPECT_EQ((em.records[i].addr - 0x40000000u) % 16, 0u);
        fw::Addr node = em.records[i].addr;
        EXPECT_GT(em.records[i + 1].addr, node);
        EXPECT_LT(em.records[i + 1].addr, node + 16);
    }
}

TEST(PointerChaseKernelTest, CycleVisitsEveryNode)
{
    fw::PointerChaseParams params;
    params.num_nodes = 32;
    params.hops = 32;
    params.write_fraction = 0.0;
    TestEmitter em;
    fw::PointerChaseKernel kernel(params);
    kernel.init(em);
    em.records.clear();
    kernel.step(em);
    std::set<fw::Addr> nodes;
    for (size_t i = 0; i < em.records.size(); i += 2)
        nodes.insert(em.records[i].addr);
    // A Sattolo cycle visits all nodes before repeating.
    EXPECT_EQ(nodes.size(), 32u);
}

TEST(StackKernelTest, PushPopBalance)
{
    fw::StackParams params;
    params.max_depth = 8;
    TestEmitter em;
    fw::StackKernel kernel(params);
    for (int i = 0; i < 200; ++i) {
        kernel.step(em);
        EXPECT_LE(kernel.depth(), 8u);
    }
    EXPECT_EQ(em.allocs.size(), em.frees.size() + kernel.depth());
}

TEST(StackKernelTest, FrameAddressesBelowTop)
{
    fw::StackParams params;
    params.stack_top = 0x7ffff000;
    TestEmitter em;
    fw::StackKernel kernel(params);
    for (int i = 0; i < 50; ++i)
        kernel.step(em);
    for (const auto &rec : em.records)
        EXPECT_LT(rec.addr, 0x7ffff000u);
}

TEST(CounterStreamKernelTest, ValuesMostlyDistinct)
{
    fw::CounterStreamParams params;
    params.words = 64;
    params.write_fraction = 1.0;
    TestEmitter em;
    fw::CounterStreamKernel kernel(params);
    for (int i = 0; i < 20; ++i)
        kernel.step(em);
    std::set<fw::Word> values;
    size_t stores = 0;
    for (const auto &rec : em.records) {
        if (rec.isStore()) {
            values.insert(rec.value);
            ++stores;
        }
    }
    EXPECT_EQ(values.size(), stores);
}

TEST(GeneratorTest, ProducesRequestedAccessCount)
{
    auto profile = fw::specIntProfile(fw::SpecInt::Gcc126);
    fw::SyntheticWorkload gen(profile, 10000, 5);
    uint64_t accesses = 0;
    ft::MemRecord rec;
    while (gen.next(rec)) {
        if (rec.isAccess())
            ++accesses;
    }
    // The last kernel burst may overshoot by a few records.
    EXPECT_GE(accesses, 10000u);
    EXPECT_LT(accesses, 10200u);
}

TEST(GeneratorTest, DeterministicForSameSeed)
{
    auto profile = fw::specIntProfile(fw::SpecInt::Li130);
    fw::SyntheticWorkload a(profile, 5000, 42);
    fw::SyntheticWorkload b(profile, 5000, 42);
    ft::MemRecord ra, rb;
    while (true) {
        bool ha = a.next(ra);
        bool hb = b.next(rb);
        ASSERT_EQ(ha, hb);
        if (!ha)
            break;
        ASSERT_EQ(ra, rb);
    }
}

TEST(GeneratorTest, DifferentSeedsDiffer)
{
    auto profile = fw::specIntProfile(fw::SpecInt::Li130);
    fw::SyntheticWorkload a(profile, 2000, 1);
    fw::SyntheticWorkload b(profile, 2000, 2);
    auto ra = allRecords(a);
    auto rb = allRecords(b);
    EXPECT_NE(ra, rb);
}

TEST(GeneratorTest, LoadsReturnStoredValues)
{
    auto profile = fw::specIntProfile(fw::SpecInt::Gcc126);
    fw::SyntheticWorkload gen(profile, 20000, 11);
    fm::FunctionalMemory shadow(gen.initialImage());
    ft::MemRecord rec;
    while (gen.next(rec)) {
        if (rec.isLoad()) {
            ASSERT_EQ(shadow.read(rec.addr), rec.value)
                << "load at " << std::hex << rec.addr;
        } else if (rec.isStore()) {
            shadow.write(rec.addr, rec.value);
        }
    }
}

TEST(GeneratorTest, InitialImageMatchesFirstLoads)
{
    auto profile = fw::specIntProfile(fw::SpecInt::Vortex147);
    fw::SyntheticWorkload gen(profile, 5000, 13);
    const auto &image = gen.initialImage();
    std::set<uint64_t> touched;
    ft::MemRecord rec;
    while (gen.next(rec)) {
        if (!rec.isAccess())
            continue;
        uint64_t w = ft::wordIndex(rec.addr);
        if (touched.insert(w).second && rec.isLoad()) {
            ASSERT_EQ(image.read(rec.addr), rec.value);
        }
    }
}

TEST(GeneratorTest, IcountMonotonicallyIncreases)
{
    auto profile = fw::specIntProfile(fw::SpecInt::Go099);
    fw::SyntheticWorkload gen(profile, 5000, 3);
    uint64_t last = 0;
    ft::MemRecord rec;
    while (gen.next(rec)) {
        EXPECT_GE(rec.icount, last);
        last = rec.icount;
    }
    EXPECT_GT(last, 5000u);
}

TEST(ProfileTest, AllSpecIntProfilesConstruct)
{
    for (auto bench : fw::allSpecInt()) {
        auto profile = fw::specIntProfile(bench);
        EXPECT_FALSE(profile.name.empty());
        EXPECT_FALSE(profile.kernels.empty());
        EXPECT_FALSE(profile.phases.empty());
        // Must be runnable.
        fw::SyntheticWorkload gen(profile, 500, 1);
        EXPECT_GT(allRecords(gen).size(), 0u);
    }
}

TEST(ProfileTest, AllSpecFpProfilesConstruct)
{
    for (const auto &name : fw::allSpecFpNames()) {
        auto profile = fw::specFpProfile(name);
        EXPECT_EQ(profile.name, name);
        fw::SyntheticWorkload gen(profile, 500, 1);
        EXPECT_GT(allRecords(gen).size(), 0u);
    }
}

TEST(ProfileTest, InputSetsChangeAddressLikeValues)
{
    auto ref = fw::specIntProfile(fw::SpecInt::M88ksim124,
                                  fw::InputSet::Ref);
    auto test = fw::specIntProfile(fw::SpecInt::M88ksim124,
                                   fw::InputSet::Test);
    std::set<fw::Word> ref_vals, test_vals;
    for (const auto &wv : ref.phases.back().pool.frequent)
        ref_vals.insert(wv.value);
    for (const auto &wv : test.phases.back().pool.frequent)
        test_vals.insert(wv.value);
    EXPECT_NE(ref_vals, test_vals);
    // The small stable constants survive the input change.
    EXPECT_TRUE(test_vals.count(0));
    EXPECT_TRUE(test_vals.count(1));
}

TEST(ProfileTest, GoInputSetsShareValues)
{
    auto ref =
        fw::specIntProfile(fw::SpecInt::Go099, fw::InputSet::Ref);
    auto train = fw::specIntProfile(fw::SpecInt::Go099,
                                    fw::InputSet::Train);
    std::set<fw::Word> a, b;
    for (const auto &wv : ref.phases.back().pool.frequent)
        a.insert(wv.value);
    for (const auto &wv : train.phases.back().pool.frequent)
        b.insert(wv.value);
    EXPECT_EQ(a, b);
}

TEST(ProfileTest, NamesMatchPaper)
{
    EXPECT_EQ(fw::specIntName(fw::SpecInt::Gcc126), "126.gcc");
    EXPECT_EQ(fw::specIntName(fw::SpecInt::Compress129),
              "129.compress");
    EXPECT_EQ(fw::allSpecInt().size(), 8u);
    EXPECT_EQ(fw::fvSpecInt().size(), 6u);
    EXPECT_EQ(fw::allSpecFpNames().size(), 10u);
}
