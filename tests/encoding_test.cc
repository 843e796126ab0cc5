/**
 * @file
 * Unit tests for the frequent value encoding.
 */

#include <gtest/gtest.h>

#include "core/encoding.hh"

namespace co = fvc::core;

TEST(EncodingTest, ThreeBitBasics)
{
    // The Figure 7 example: {0, -1, 1, 2, 4, 8, 10} in 3 bits.
    std::vector<co::Word> values = {0, 0xffffffffu, 1, 2, 4, 8, 10};
    co::FrequentValueEncoding enc(values, 3);
    EXPECT_EQ(enc.codeBits(), 3u);
    EXPECT_EQ(enc.capacity(), 7u);
    EXPECT_EQ(enc.valueCount(), 7u);
    EXPECT_EQ(enc.nonFrequentCode(), 7u);

    EXPECT_EQ(enc.encode(0), 0u);
    EXPECT_EQ(enc.encode(0xffffffffu), 1u);
    EXPECT_EQ(enc.encode(10), 6u);
    EXPECT_EQ(enc.encode(99999), enc.nonFrequentCode());

    EXPECT_EQ(enc.decode(0), 0u);
    EXPECT_EQ(enc.decode(6), 10u);
    EXPECT_FALSE(enc.decode(enc.nonFrequentCode()).has_value());
}

TEST(EncodingTest, RoundTripAllWidths)
{
    for (unsigned bits = 1; bits <= 8; ++bits) {
        std::vector<co::Word> values;
        for (uint32_t i = 0; i < (1u << bits) - 1; ++i)
            values.push_back(1000 + i * 17);
        co::FrequentValueEncoding enc(values, bits);
        EXPECT_EQ(enc.valueCount(), values.size());
        for (co::Word v : values) {
            co::Code c = enc.encode(v);
            ASSERT_NE(c, enc.nonFrequentCode());
            EXPECT_EQ(enc.decode(c), v);
        }
    }
}

TEST(EncodingTest, TruncatesToCapacity)
{
    std::vector<co::Word> ten = {0, 1, 2, 3, 4, 5, 6, 7, 8, 9};
    co::FrequentValueEncoding enc(ten, 2); // capacity 3
    EXPECT_EQ(enc.valueCount(), 3u);
    EXPECT_TRUE(enc.isFrequent(2));
    EXPECT_FALSE(enc.isFrequent(3));
}

TEST(EncodingTest, IgnoresDuplicates)
{
    std::vector<co::Word> dup = {5, 5, 6};
    co::FrequentValueEncoding enc(dup, 2);
    EXPECT_EQ(enc.valueCount(), 2u);
    EXPECT_EQ(enc.encode(5), 0u);
    EXPECT_EQ(enc.encode(6), 1u);
}

TEST(EncodingTest, OneBitEncodesSingleValue)
{
    co::FrequentValueEncoding enc({0}, 1);
    EXPECT_EQ(enc.capacity(), 1u);
    EXPECT_EQ(enc.encode(0), 0u);
    EXPECT_EQ(enc.nonFrequentCode(), 1u);
    EXPECT_EQ(enc.encode(1), 1u);
}

TEST(EncodingTest, EncodeLineCountsFrequentWords)
{
    co::FrequentValueEncoding enc({0, 0xffffffffu, 1, 2, 4, 8, 10}, 3);
    std::vector<co::Word> line = {0, 55555, 1, 66666, 2, 77777, 4, 88888};
    std::vector<co::Code> codes(line.size());
    EXPECT_EQ(enc.encodeLine(line, codes), 4u);
    for (size_t w = 0; w < line.size(); ++w)
        EXPECT_EQ(codes[w], enc.encode(line[w]));
}
