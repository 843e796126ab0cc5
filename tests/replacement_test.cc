/**
 * @file
 * Tests for the FIFO and Random replacement policies and the
 * test-support CacheInspector.
 */

#include <gtest/gtest.h>

#include <set>

#include "cache/set_assoc_cache.hh"
#include "memmodel/functional_memory.hh"

namespace fc = fvc::cache;
namespace ft = fvc::trace;

namespace {

fc::CacheConfig
fourWay(fc::Replacement policy)
{
    fc::CacheConfig cfg;
    cfg.size_bytes = 128; // one 4-way set of 32B lines
    cfg.line_bytes = 32;
    cfg.assoc = 4;
    cfg.replacement = policy;
    return cfg;
}

} // namespace

TEST(ReplacementTest, FifoIgnoresTouches)
{
    fc::SetAssocCache cache(fourWay(fc::Replacement::FIFO));
    std::vector<ft::Word> data(8, 0);
    // Fill the set in order A, B, C, D.
    for (ft::Addr base : {0x000u, 0x080u, 0x100u, 0x180u})
        cache.fill(base, data, false);
    // Touch A repeatedly; FIFO must still evict A first.
    for (int i = 0; i < 10; ++i)
        cache.probeTouch(0x000);
    auto victim = cache.fill(0x200, data, false);
    ASSERT_TRUE(victim.has_value());
    EXPECT_EQ(victim->base, 0x000u);
}

TEST(ReplacementTest, LruRespectsTouches)
{
    fc::SetAssocCache cache(fourWay(fc::Replacement::LRU));
    std::vector<ft::Word> data(8, 0);
    for (ft::Addr base : {0x000u, 0x080u, 0x100u, 0x180u})
        cache.fill(base, data, false);
    cache.probeTouch(0x000); // B (0x080) becomes LRU
    auto victim = cache.fill(0x200, data, false);
    ASSERT_TRUE(victim.has_value());
    EXPECT_EQ(victim->base, 0x080u);
}

TEST(ReplacementTest, RandomEvictsVariedWays)
{
    fc::SetAssocCache cache(fourWay(fc::Replacement::Random));
    std::vector<ft::Word> data(8, 0);
    for (ft::Addr base : {0x000u, 0x080u, 0x100u, 0x180u})
        cache.fill(base, data, false);
    std::set<ft::Addr> victims;
    ft::Addr next = 0x200;
    for (int i = 0; i < 40; ++i) {
        auto victim = cache.fill(next, data, false);
        ASSERT_TRUE(victim.has_value());
        victims.insert(victim->base);
        next += 0x80;
    }
    // Over 40 random evictions several distinct prior lines fall.
    EXPECT_GE(victims.size(), 8u);
}

TEST(ReplacementTest, InvalidWaysFillFirstUnderAllPolicies)
{
    for (auto policy : {fc::Replacement::LRU, fc::Replacement::FIFO,
                        fc::Replacement::Random}) {
        fc::SetAssocCache cache(fourWay(policy));
        std::vector<ft::Word> data(8, 0);
        EXPECT_FALSE(cache.fill(0x000, data, false).has_value());
        EXPECT_FALSE(cache.fill(0x080, data, false).has_value());
        EXPECT_FALSE(cache.fill(0x100, data, false).has_value());
        EXPECT_FALSE(cache.fill(0x180, data, false).has_value());
        EXPECT_TRUE(cache.fill(0x200, data, false).has_value());
    }
}

TEST(CacheInspectorTest, ExposesLineState)
{
    fc::CacheConfig cfg;
    cfg.size_bytes = 128;
    cfg.line_bytes = 32;
    cfg.assoc = 2; // 2 sets x 2 ways
    fc::SetAssocCache cache(cfg);
    std::vector<ft::Word> data = {1, 2, 3, 4, 5, 6, 7, 8};
    cache.fill(0x40, data, true); // set 0... 0x40: index bit
    fc::CacheInspector inspector(cache);
    bool found = false;
    for (uint32_t set = 0; set < cfg.sets(); ++set) {
        for (uint32_t way = 0; way < cfg.assoc; ++way) {
            const auto &line = inspector.line(set, way);
            if (line.valid) {
                EXPECT_TRUE(line.dirty);
                EXPECT_EQ(cache.words(line)[0], 1u);
                EXPECT_EQ(inspector.lineBase(set, way), 0x40u);
                found = true;
            }
        }
    }
    EXPECT_TRUE(found);
}
