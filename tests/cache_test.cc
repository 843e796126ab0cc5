/**
 * @file
 * Unit tests for the generic cache substrate: geometry, the
 * set-associative array, replacement, write-back semantics, and a
 * randomized cross-check against a reference model.
 */

#include <gtest/gtest.h>

#include <map>

#include "cache/cache_system.hh"
#include "cache/config.hh"
#include "cache/set_assoc_cache.hh"
#include "memmodel/functional_memory.hh"
#include "util/random.hh"

namespace fc = fvc::cache;
namespace fm = fvc::memmodel;
namespace ft = fvc::trace;

using Words = std::vector<ft::Word>;

TEST(CacheConfigTest, Geometry)
{
    fc::CacheConfig cfg;
    cfg.size_bytes = 16 * 1024;
    cfg.line_bytes = 32;
    cfg.assoc = 1;
    cfg.validate();
    EXPECT_EQ(cfg.lines(), 512u);
    EXPECT_EQ(cfg.sets(), 512u);
    EXPECT_EQ(cfg.wordsPerLine(), 8u);
    EXPECT_EQ(cfg.offsetBits(), 5u);
    EXPECT_EQ(cfg.indexBits(), 9u);
    EXPECT_EQ(cfg.describe(), "16Kb/32B/1-way");
}

TEST(CacheConfigTest, AddressSplit)
{
    fc::CacheConfig cfg;
    cfg.size_bytes = 4096;
    cfg.line_bytes = 16;
    cfg.assoc = 2;
    cfg.validate();
    // 128 sets: offset 4 bits, index 7 bits.
    fc::Addr addr = 0xabcd1234;
    EXPECT_EQ(cfg.lineBase(addr), 0xabcd1230u);
    EXPECT_EQ(cfg.setIndex(addr), (0xabcd1234u >> 4) & 0x7f);
    EXPECT_EQ(cfg.tag(addr), 0xabcd1234u >> 11);
    EXPECT_EQ(cfg.wordOffset(addr), 1u);
}

TEST(SetAssocCacheTest, FillProbeRead)
{
    fc::CacheConfig cfg;
    cfg.size_bytes = 1024;
    cfg.line_bytes = 16;
    fc::SetAssocCache cache(cfg);
    EXPECT_EQ(cache.probe(0x1000), nullptr);
    auto victim = cache.fill(0x1000, Words{1, 2, 3, 4}, false);
    EXPECT_FALSE(victim.has_value());
    ASSERT_NE(cache.probe(0x1000), nullptr);
    EXPECT_EQ(cache.readWord(0x1000), 1u);
    EXPECT_EQ(cache.readWord(0x1008), 3u);
    EXPECT_EQ(cache.validLines(), 1u);
}

TEST(SetAssocCacheTest, ConflictingFillEvicts)
{
    fc::CacheConfig cfg;
    cfg.size_bytes = 1024;
    cfg.line_bytes = 16;
    fc::SetAssocCache cache(cfg);
    cache.fill(0x1000, Words{1, 2, 3, 4}, true);
    // Same index (stride = cache size), different tag.
    auto victim = cache.fill(0x1000 + 1024, Words{5, 6, 7, 8}, false);
    ASSERT_TRUE(victim.has_value());
    EXPECT_EQ(victim->base, 0x1000u);
    EXPECT_TRUE(victim->dirty);
    EXPECT_EQ(victim->data[0], 1u);
    EXPECT_EQ(cache.probe(0x1000), nullptr);
    EXPECT_NE(cache.probe(0x1400), nullptr);
}

TEST(SetAssocCacheTest, AssociativityAvoidsConflict)
{
    fc::CacheConfig cfg;
    cfg.size_bytes = 1024;
    cfg.line_bytes = 16;
    cfg.assoc = 2;
    fc::SetAssocCache cache(cfg);
    cache.fill(0x1000, Words{1, 0, 0, 0}, false);
    auto victim = cache.fill(0x1000 + 512, Words{2, 0, 0, 0}, false);
    EXPECT_FALSE(victim.has_value());
    EXPECT_NE(cache.probe(0x1000), nullptr);
    EXPECT_NE(cache.probe(0x1200), nullptr);
}

TEST(SetAssocCacheTest, LruEvictsLeastRecentlyUsed)
{
    fc::CacheConfig cfg;
    cfg.size_bytes = 64;
    cfg.line_bytes = 16;
    cfg.assoc = 2; // 2 sets x 2 ways
    fc::SetAssocCache cache(cfg);
    // Two lines in set 0 (stride 32 bytes).
    cache.fill(0x000, Words{1, 0, 0, 0}, false);
    cache.fill(0x040, Words{2, 0, 0, 0}, false);
    // Touch the first so the second becomes LRU.
    cache.probeTouch(0x000);
    auto victim = cache.fill(0x080, Words{3, 0, 0, 0}, false);
    ASSERT_TRUE(victim.has_value());
    EXPECT_EQ(victim->base, 0x040u);
}

TEST(SetAssocCacheTest, WriteWordSetsDirty)
{
    fc::CacheConfig cfg;
    cfg.size_bytes = 256;
    cfg.line_bytes = 16;
    fc::SetAssocCache cache(cfg);
    cache.fill(0x100, Words{0, 0, 0, 0}, false);
    cache.writeWord(0x104, 99);
    auto line = cache.probe(0x100);
    EXPECT_TRUE(line->dirty);
    EXPECT_EQ(cache.readWord(0x104), 99u);
}

TEST(SetAssocCacheTest, InvalidateReturnsContents)
{
    fc::CacheConfig cfg;
    cfg.size_bytes = 256;
    cfg.line_bytes = 16;
    fc::SetAssocCache cache(cfg);
    cache.fill(0x100, Words{9, 8, 7, 6}, true);
    auto out = cache.invalidate(0x100);
    ASSERT_TRUE(out.has_value());
    EXPECT_EQ(out->base, 0x100u);
    EXPECT_TRUE(out->dirty);
    EXPECT_EQ(out->data[3], 6u);
    EXPECT_EQ(cache.probe(0x100), nullptr);
    EXPECT_FALSE(cache.invalidate(0x100).has_value());
}

TEST(SetAssocCacheTest, FlushReturnsAllValid)
{
    fc::CacheConfig cfg;
    cfg.size_bytes = 256;
    cfg.line_bytes = 16;
    fc::SetAssocCache cache(cfg);
    cache.fill(0x000, Words{1, 0, 0, 0}, true);
    cache.fill(0x010, Words{2, 0, 0, 0}, false);
    auto flushed = cache.flush();
    EXPECT_EQ(flushed.size(), 2u);
    EXPECT_EQ(cache.validLines(), 0u);
}

TEST(SetAssocCacheTest, StandaloneAccessHitMiss)
{
    fc::CacheConfig cfg;
    cfg.size_bytes = 256;
    cfg.line_bytes = 16;
    fc::SetAssocCache cache(cfg);
    fm::FunctionalMemory mem;
    mem.write(0x100, 77);

    EXPECT_FALSE(cache.access(ft::Op::Load, 0x100, 0, mem));
    EXPECT_EQ(cache.readWord(0x100), 77u);
    EXPECT_TRUE(cache.access(ft::Op::Load, 0x104, 0, mem));
    EXPECT_TRUE(cache.access(ft::Op::Store, 0x100, 88, mem));
    EXPECT_EQ(cache.stats().read_hits, 1u);
    EXPECT_EQ(cache.stats().read_misses, 1u);
    EXPECT_EQ(cache.stats().write_hits, 1u);
    EXPECT_EQ(cache.stats().fills, 1u);
    EXPECT_EQ(cache.stats().fetch_bytes, 16u);
}

TEST(SetAssocCacheTest, WritebackReachesMemory)
{
    fc::CacheConfig cfg;
    cfg.size_bytes = 64;
    cfg.line_bytes = 16;
    fc::SetAssocCache cache(cfg);
    fm::FunctionalMemory mem;
    cache.access(ft::Op::Store, 0x000, 123, mem);
    EXPECT_EQ(mem.read(0x000), 0u); // write-back: not yet in memory
    // Evict by touching the aliasing line.
    cache.access(ft::Op::Load, 0x040, 0, mem);
    EXPECT_EQ(mem.read(0x000), 123u);
    EXPECT_EQ(cache.stats().writebacks, 1u);
    EXPECT_EQ(cache.stats().writeback_bytes, 16u);
}

TEST(CacheStatsTest, Aggregation)
{
    fc::CacheStats a, b;
    a.read_hits = 10;
    a.read_misses = 5;
    b.write_hits = 3;
    b.write_misses = 2;
    a += b;
    EXPECT_EQ(a.accesses(), 20u);
    EXPECT_EQ(a.misses(), 7u);
    EXPECT_DOUBLE_EQ(a.missRatePercent(), 35.0);
}

TEST(CacheStatsTest, EmptyMissRate)
{
    fc::CacheStats s;
    EXPECT_DOUBLE_EQ(s.missRatePercent(), 0.0);
}

TEST(DmcSystemTest, LoadsReturnTraceValues)
{
    fc::CacheConfig cfg;
    cfg.size_bytes = 256;
    cfg.line_bytes = 16;
    fc::DmcSystem sys(cfg);
    sys.access({ft::Op::Store, 0x100, 42, 1});
    auto result = sys.access({ft::Op::Load, 0x100, 42, 2});
    EXPECT_TRUE(result.isHit());
    EXPECT_EQ(result.loaded, 42u);
}

TEST(DmcSystemTest, FlushDrainsDirtyState)
{
    fc::CacheConfig cfg;
    cfg.size_bytes = 256;
    cfg.line_bytes = 16;
    fc::DmcSystem sys(cfg);
    sys.access({ft::Op::Store, 0x100, 42, 1});
    sys.access({ft::Op::Store, 0x200, 43, 2});
    sys.flush();
    EXPECT_EQ(sys.memoryImage().read(0x100), 42u);
    EXPECT_EQ(sys.memoryImage().read(0x200), 43u);
}

/**
 * Randomized cross-check: the cache + memory must behave exactly
 * like a flat reference map, for every geometry in the sweep.
 */
class CacheReferenceTest
    : public ::testing::TestWithParam<std::tuple<uint32_t, uint32_t,
                                                 uint32_t>>
{
};

TEST_P(CacheReferenceTest, MatchesFlatMemoryModel)
{
    auto [size, line, assoc] = GetParam();
    fc::CacheConfig cfg;
    cfg.size_bytes = size;
    cfg.line_bytes = line;
    cfg.assoc = assoc;
    fc::DmcSystem sys(cfg);

    std::map<ft::Addr, ft::Word> reference;
    fvc::util::Rng rng(size * 31 + line * 7 + assoc);

    for (int i = 0; i < 20000; ++i) {
        ft::Addr addr = static_cast<ft::Addr>(
            rng.below(4096) * 4); // 16 KB footprint
        if (rng.chance(0.4)) {
            ft::Word value = rng.next32();
            reference[addr] = value;
            sys.access({ft::Op::Store, addr, value, 0});
        } else {
            auto result = sys.access({ft::Op::Load, addr, 0, 0});
            ft::Word expect =
                reference.count(addr) ? reference[addr] : 0;
            ASSERT_EQ(result.loaded, expect)
                << cfg.describe() << " at " << std::hex << addr;
        }
    }
    sys.flush();
    for (const auto &[addr, value] : reference)
        ASSERT_EQ(sys.memoryImage().read(addr), value);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheReferenceTest,
    ::testing::Values(std::make_tuple(512u, 8u, 1u),
                      std::make_tuple(1024u, 16u, 1u),
                      std::make_tuple(1024u, 16u, 2u),
                      std::make_tuple(4096u, 32u, 4u),
                      std::make_tuple(4096u, 64u, 1u),
                      std::make_tuple(16384u, 32u, 8u)));
