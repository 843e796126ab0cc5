/**
 * @file
 * Unit tests for the FrequentValueCache array.
 */

#include <gtest/gtest.h>

#include <map>

#include "core/fvc_cache.hh"
#include "core/size_model.hh"
#include "util/random.hh"

namespace co = fvc::core;
using fvc::trace::Addr;
using fvc::trace::Word;

namespace {

co::FrequentValueEncoding
topSeven()
{
    return co::FrequentValueEncoding(
        {0, 0xffffffffu, 1, 2, 4, 8, 10}, 3);
}

co::FvcConfig
smallConfig(uint32_t entries = 16)
{
    co::FvcConfig cfg;
    cfg.entries = entries;
    cfg.line_bytes = 32;
    cfg.code_bits = 3;
    return cfg;
}

/** Encode @p words with @p fvc's encoding and insert the line. */
std::optional<co::FvcEvicted>
insertWords(co::FrequentValueCache &fvc, Addr base,
            const std::vector<Word> &words, bool dirty)
{
    std::vector<co::Code> codes(words.size());
    fvc.encoding().encodeLine(words, codes);
    return fvc.insertLine(base, codes, dirty);
}

} // namespace

TEST(FvcConfigTest, StorageBits)
{
    co::FvcConfig cfg;
    cfg.entries = 512;
    cfg.line_bytes = 32;
    cfg.code_bits = 3;
    cfg.validate();
    // Tag = 32 - 5 offset - 9 index = 18 bits; + 2 state + 24 data:
    // the paper's 8 words x 3 bits, a 256-bit DMC line in 24 bits.
    EXPECT_EQ(cfg.storageBits(), 512u * (18 + 2 + 24));
    // The paper calls this configuration "1.5Kb" of data.
    EXPECT_EQ(512u * 24 / 8, 1536u);

    // 16 words x 1 bit: tag = 32 - 6 - 9 = 17; + 2 state + 16 data.
    cfg.line_bytes = 64;
    cfg.code_bits = 1;
    cfg.validate();
    EXPECT_EQ(cfg.storageBits(), 512u * (17 + 2 + 16));
}

TEST(FvcCacheTest, InsertThenReadFrequentWord)
{
    co::FrequentValueCache fvc(smallConfig(), topSeven());
    std::vector<Word> line = {0, 99999, 1, 2, 4, 8, 10, 77777};
    EXPECT_FALSE(insertWords(fvc, 0x1000, line, false).has_value());
    EXPECT_TRUE(fvc.tagMatch(0x1000));
    EXPECT_TRUE(fvc.tagMatch(0x101c));

    EXPECT_EQ(fvc.readWord(0x1000), 0u);
    EXPECT_EQ(fvc.readWord(0x1008), 1u);
    EXPECT_EQ(fvc.readWord(0x1018), 10u);
    // Non-frequent words decode to nothing.
    EXPECT_FALSE(fvc.readWord(0x1004).has_value());
    EXPECT_FALSE(fvc.readWord(0x101c).has_value());
}

TEST(FvcCacheTest, TagMissReadsNothing)
{
    co::FrequentValueCache fvc(smallConfig(), topSeven());
    std::vector<Word> line(8, 0);
    insertWords(fvc, 0x1000, line, false);
    EXPECT_FALSE(fvc.tagMatch(0x2000));
    EXPECT_FALSE(fvc.readWord(0x2000).has_value());
}

TEST(FvcCacheTest, WriteHitUpdatesCode)
{
    co::FrequentValueCache fvc(smallConfig(), topSeven());
    std::vector<Word> line(8, 0);
    insertWords(fvc, 0x1000, line, false);
    EXPECT_TRUE(fvc.writeWord(0x1004, 4));
    EXPECT_EQ(fvc.readWord(0x1004), 4u);
    // Writing a non-frequent value is rejected (a miss upstream).
    EXPECT_FALSE(fvc.writeWord(0x1008, 12345));
    EXPECT_EQ(fvc.readWord(0x1008), 0u);
}

TEST(FvcCacheTest, WriteMarksDirtyAndEvictReportsValues)
{
    co::FrequentValueCache fvc(smallConfig(2), topSeven());
    std::vector<Word> line = {0, 31337, 1, 1, 1, 1, 1, 1};
    insertWords(fvc, 0x1000, line, false);
    fvc.writeWord(0x1000, 2);

    // Force an eviction with an aliasing insert (2 entries, 32B
    // lines -> reach 64B; stride 64 aliases).
    std::vector<Word> other(8, 4);
    auto evicted = insertWords(fvc, 0x1000 + 64, other, false);
    ASSERT_TRUE(evicted.has_value());
    EXPECT_EQ(evicted->base, 0x1000u);
    EXPECT_TRUE(evicted->dirty);
    const auto &enc = fvc.encoding();
    EXPECT_EQ(enc.decode(evicted->codes[0]), 2u); // updated by write
    EXPECT_FALSE(enc.decode(evicted->codes[1]).has_value()); // non-frequent
    EXPECT_EQ(enc.decode(evicted->codes[2]), 1u);
}

TEST(FvcCacheTest, CleanInsertEvictsClean)
{
    co::FrequentValueCache fvc(smallConfig(2), topSeven());
    std::vector<Word> line(8, 0);
    insertWords(fvc, 0x1000, line, false);
    auto evicted = insertWords(fvc, 0x1000 + 64, line, false);
    ASSERT_TRUE(evicted.has_value());
    EXPECT_FALSE(evicted->dirty);
}

TEST(FvcCacheTest, WriteAllocateMarksOthersNonFrequent)
{
    co::FrequentValueCache fvc(smallConfig(), topSeven());
    auto evicted = fvc.writeAllocate(0x1008, 8);
    EXPECT_FALSE(evicted.has_value());
    EXPECT_TRUE(fvc.tagMatch(0x1000));
    EXPECT_EQ(fvc.readWord(0x1008), 8u);
    for (Addr off = 0; off < 32; off += 4) {
        if (off != 8) {
            EXPECT_FALSE(fvc.readWord(0x1000 + off).has_value());
        }
    }
}

TEST(FvcCacheTest, InvalidateRemovesEntry)
{
    co::FrequentValueCache fvc(smallConfig(), topSeven());
    std::vector<Word> line(8, 1);
    insertWords(fvc, 0x1000, line, true);
    auto out = fvc.invalidate(0x1000);
    ASSERT_TRUE(out.has_value());
    EXPECT_TRUE(out->dirty);
    EXPECT_FALSE(fvc.tagMatch(0x1000));
    EXPECT_EQ(fvc.validLines(), 0u);
}

TEST(FvcCacheTest, FrequentCodeFraction)
{
    co::FrequentValueCache fvc(smallConfig(), topSeven());
    // Half the words frequent.
    std::vector<Word> line = {0, 55555, 1, 66666, 2, 77777, 4,
                              88888};
    insertWords(fvc, 0x1000, line, false);
    EXPECT_NEAR(fvc.frequentCodeFraction(), 0.5, 1e-9);
    std::vector<co::Code> codes(line.size());
    EXPECT_EQ(fvc.encoding().encodeLine(line, codes), 4u);
}

TEST(FvcCacheTest, FlushReturnsEverything)
{
    co::FrequentValueCache fvc(smallConfig(), topSeven());
    std::vector<Word> line(8, 0);
    insertWords(fvc, 0x1000, line, false);
    insertWords(fvc, 0x2020, line, true);
    auto all = fvc.flush();
    EXPECT_EQ(all.size(), 2u);
    EXPECT_EQ(fvc.validLines(), 0u);
    EXPECT_EQ(fvc.frequentCodeFraction(), 0.0);
}

TEST(FvcCacheTest, SetAssociativeFvcHoldsAliases)
{
    co::FvcConfig cfg = smallConfig(4);
    cfg.assoc = 2;
    co::FrequentValueCache fvc(cfg, topSeven());
    std::vector<Word> line(8, 1);
    // Two lines aliasing in a 2-set FVC (reach 64B).
    insertWords(fvc, 0x1000, line, false);
    auto evicted = insertWords(fvc, 0x1040, line, false);
    EXPECT_FALSE(evicted.has_value());
    EXPECT_TRUE(fvc.tagMatch(0x1000));
    EXPECT_TRUE(fvc.tagMatch(0x1040));
}

TEST(FvcCacheTest, CompressionFactorMatchesPaper)
{
    // 32-byte line, 3-bit codes, 40% frequent content => 4.27x.
    co::FvcConfig cfg = smallConfig();
    EXPECT_NEAR(co::compressionFactor(cfg, 0.4), 4.266, 0.01);
}

TEST(FvcCacheTest, CodesRoundTripAllWidths)
{
    // One byte per code at every width: each word of a line of
    // distinct frequent values reads back, and so does the
    // non-frequent marker.
    for (unsigned bits = 1; bits <= 8; ++bits) {
        std::vector<Word> values;
        for (uint32_t i = 0; i < (1u << bits) - 1; ++i)
            values.push_back(1000 + i * 17);
        co::FvcConfig cfg = smallConfig();
        cfg.code_bits = bits;
        co::FrequentValueCache fvc(
            cfg, co::FrequentValueEncoding(values, bits));
        std::vector<Word> line(8);
        for (uint32_t w = 0; w < 8; ++w)
            line[w] = w == 5 ? 99999 : values[w % values.size()];
        insertWords(fvc, 0x1000, line, false);
        for (uint32_t w = 0; w < 8; ++w) {
            auto v = fvc.readWord(0x1000 + w * 4);
            if (w == 5) {
                EXPECT_FALSE(v.has_value()) << "bits=" << bits;
            } else {
                EXPECT_EQ(v, line[w]) << "bits=" << bits << " w=" << w;
            }
        }
    }
}

/*
 * The FVC's code array: the model keeps one byte per code in one
 * flat array (entry i at i * wordsPerLine()), while the modelled
 * hardware spends code_bits per word (fvcStorage's data bits).
 */

TEST(CodeArrayTest, NeighborsUnaffected)
{
    // Two lines of non-frequent words in adjacent entries. A write
    // hit changes its own code only: the rest of its line and the
    // next entry's first word keep the non-frequent code.
    co::FrequentValueCache fvc(smallConfig(), topSeven());
    std::vector<Word> line(8, 77777);
    insertWords(fvc, 0x1000, line, false);
    insertWords(fvc, 0x1020, line, false);
    EXPECT_TRUE(fvc.writeWord(0x100c, 2));
    EXPECT_TRUE(fvc.writeWord(0x101c, 4));
    for (Addr off = 0; off < 64; off += 4) {
        std::optional<Word> expected;
        if (off == 0x0c)
            expected = 2;
        else if (off == 0x1c)
            expected = 4;
        EXPECT_EQ(fvc.readWord(0x1000 + off), expected) << "off=" << off;
    }
}

TEST(CodeArrayTest, StorageAccounting)
{
    // 8 words x 3 bits = 24 bits an entry; 16 words x 1 bit = 16.
    co::FvcConfig cfg = smallConfig();
    EXPECT_EQ(co::fvcStorage(cfg).data_bits, 16u * 24);
    cfg.line_bytes = 64;
    cfg.code_bits = 1;
    cfg.validate();
    EXPECT_EQ(co::fvcStorage(cfg).data_bits, 16u * 16);
}

TEST(CodeArrayTest, CompressionExample)
{
    // The paper's example: an 8-word 256-bit DMC line becomes a
    // 24-bit FVC field with 3-bit codes.
    co::FvcConfig cfg = smallConfig(1);
    cfg.validate();
    uint64_t field = co::fvcStorage(cfg).data_bits;
    EXPECT_EQ(cfg.line_bytes * 8, 256u);
    EXPECT_EQ(field, 24u);
    EXPECT_EQ(field * 32 / 3, 256u);
}

/**
 * The occupancy counts behind validLines() and frequentCodeFraction()
 * are kept current on every change. Drive the FVC through a seeded
 * mix of every operation that changes an entry, and after each step
 * compare both with a recount over a shadow of the resident lines.
 */
TEST(FvcCacheTest, OccupancyCountersMatchRecount)
{
    for (uint32_t assoc : {1u, 2u, 4u}) {
        for (unsigned bits : {1u, 2u, 3u}) {
            co::FvcConfig cfg = smallConfig(16);
            cfg.assoc = assoc;
            cfg.code_bits = bits;
            const uint32_t wpl = cfg.wordsPerLine();
            auto valueSet = [&](Word first) {
                std::vector<Word> values;
                for (uint32_t i = 0; i < (1u << bits) - 1; ++i)
                    values.push_back(first + i);
                return values;
            };
            std::vector<Word> values = valueSet(0);
            co::FrequentValueCache fvc(
                cfg, co::FrequentValueEncoding(values, bits));
            fvc::util::Rng rng(assoc * 10 + bits);

            // Line base -> which words hold frequent codes.
            std::map<Addr, std::vector<bool>> shadow;
            auto drop = [&](const std::optional<co::FvcEvicted> &out) {
                if (out) {
                    ASSERT_EQ(shadow.erase(out->base), 1u);
                }
            };
            auto randomValue = [&]() -> Word {
                return rng.chance(0.5)
                    ? values[rng.below(values.size())]
                    : 5000 + static_cast<Word>(rng.below(100));
            };

            for (int step = 0; step < 3000; ++step) {
                // 64 lines of 32 bytes over a 16-entry FVC.
                Addr base = static_cast<Addr>(rng.below(64) * 32);
                Addr addr = base + static_cast<Addr>(rng.below(wpl) * 4);
                uint32_t word = (addr - base) / 4;
                bool resident = shadow.count(base) != 0;
                ASSERT_EQ(fvc.tagMatch(base), resident);

                switch (rng.below(10)) {
                  case 0:
                  case 1:
                  case 2: {
                    if (resident) {
                        ASSERT_TRUE(fvc.invalidate(base).has_value());
                        shadow.erase(base);
                        break;
                    }
                    std::vector<Word> line(wpl);
                    std::vector<bool> frequent(wpl);
                    for (uint32_t w = 0; w < wpl; ++w) {
                        line[w] = randomValue();
                        frequent[w] =
                            fvc.encoding().isFrequent(line[w]);
                    }
                    drop(insertWords(fvc, base, line, rng.chance(0.5)));
                    shadow[base] = frequent;
                    break;
                  }
                  case 3:
                  case 4: {
                    Word value = values[rng.below(values.size())];
                    if (resident) {
                        ASSERT_TRUE(fvc.writeWord(addr, value));
                        shadow[base][word] = true;
                        break;
                    }
                    drop(fvc.writeAllocate(addr, value));
                    shadow[base] = std::vector<bool>(wpl, false);
                    shadow[base][word] = true;
                    break;
                  }
                  case 5:
                  case 6: {
                    Word value = randomValue();
                    auto outcome = fvc.probeWrite(addr, value);
                    using PO = co::FrequentValueCache::ProbeOutcome;
                    if (!resident) {
                        ASSERT_EQ(outcome, PO::NoTag);
                    } else if (fvc.encoding().isFrequent(value)) {
                        ASSERT_EQ(outcome, PO::Hit);
                        shadow[base][word] = true;
                    } else {
                        ASSERT_EQ(outcome, PO::NonFrequent);
                    }
                    break;
                  }
                  case 7:
                  case 8:
                    ASSERT_EQ(fvc.invalidate(addr).has_value(),
                              resident);
                    shadow.erase(base);
                    break;
                  default:
                    ASSERT_EQ(fvc.flush().size(), shadow.size());
                    shadow.clear();
                    if (rng.chance(0.5)) {
                        values = valueSet(
                            static_cast<Word>(rng.below(8)) * 100);
                        fvc.rekey(
                            co::FrequentValueEncoding(values, bits));
                    }
                    break;
                }

                uint64_t frequent = 0;
                for (const auto &[line_base, words] : shadow) {
                    for (bool f : words)
                        frequent += f;
                }
                uint64_t slots = shadow.size() * wpl;
                double fraction =
                    slots == 0 ? 0.0
                               : static_cast<double>(frequent) /
                                     static_cast<double>(slots);
                ASSERT_EQ(fvc.validLines(), shadow.size())
                    << "assoc=" << assoc << " bits=" << bits
                    << " step=" << step;
                ASSERT_EQ(fvc.frequentCodeFraction(), fraction)
                    << "assoc=" << assoc << " bits=" << bits
                    << " step=" << step;
            }
        }
    }
}
