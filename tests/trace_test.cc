/**
 * @file
 * Unit tests for the trace module's records and trace statistics
 * (the store file format is tested in trace_store_test.cc).
 */

#include <gtest/gtest.h>

#include <vector>

#include "trace/record.hh"
#include "trace/trace_stats.hh"

namespace ft = fvc::trace;

namespace {

std::vector<ft::MemRecord>
sampleRecords()
{
    return {
        {ft::Op::Alloc, 0x1000, 64, 0},
        {ft::Op::Store, 0x1000, 42, 3},
        {ft::Op::Load, 0x1000, 42, 6},
        {ft::Op::Load, 0x2000, 0, 9},
        {ft::Op::Store, 0x2004, 7, 12},
        {ft::Op::Free, 0x1000, 64, 12},
    };
}

} // namespace

TEST(RecordTest, Classification)
{
    ft::MemRecord load{ft::Op::Load, 4, 0, 0};
    ft::MemRecord store{ft::Op::Store, 4, 0, 0};
    ft::MemRecord alloc{ft::Op::Alloc, 4, 0, 0};
    EXPECT_TRUE(load.isAccess());
    EXPECT_TRUE(load.isLoad());
    EXPECT_FALSE(load.isStore());
    EXPECT_TRUE(store.isAccess());
    EXPECT_TRUE(store.isStore());
    EXPECT_FALSE(alloc.isAccess());
}

TEST(RecordTest, WordIndex)
{
    EXPECT_EQ(ft::wordIndex(0), 0u);
    EXPECT_EQ(ft::wordIndex(4), 1u);
    EXPECT_EQ(ft::wordIndex(0x1000), 0x400u);
}

TEST(TraceStatsTest, CountsAndFootprint)
{
    ft::TraceStats stats;
    for (const auto &rec : sampleRecords())
        stats.observe(rec);
    EXPECT_EQ(stats.loads(), 2u);
    EXPECT_EQ(stats.stores(), 2u);
    EXPECT_EQ(stats.accesses(), 4u);
    EXPECT_EQ(stats.allocs(), 1u);
    EXPECT_EQ(stats.frees(), 1u);
    // Unique words: 0x1000, 0x2000, 0x2004.
    EXPECT_EQ(stats.uniqueWords(), 3u);
    EXPECT_EQ(stats.footprintBytes(), 12u);
    EXPECT_EQ(stats.lastIcount(), 12u);
}

TEST(TraceStatsTest, AccessDensity)
{
    ft::TraceStats stats;
    stats.observe({ft::Op::Load, 0, 0, 0});
    stats.observe({ft::Op::Load, 4, 0, 1000});
    EXPECT_DOUBLE_EQ(stats.accessesPerKiloInstruction(), 2.0);
}
