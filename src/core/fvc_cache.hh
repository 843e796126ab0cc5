/**
 * @file
 * FrequentValueCache: the value-centric cache array of Section 3.
 *
 * Each entry covers the address range of one DMC line but stores
 * only b-bit codes per word: a code either names one of the top
 * frequently accessed values or marks the word as non-frequent.
 * A 32-byte line thus compresses to e.g. 3 bytes (8 words x 3 bits),
 * which is how a 1.5 KB FVC "holds 4K frequent values".
 *
 * The model keeps one byte per code, in one flat array (entry i at
 * i * wordsPerLine()); FvcConfig::storageBits() is what the modelled
 * hardware spends.
 */

#ifndef FVC_CORE_FVC_CACHE_HH_
#define FVC_CORE_FVC_CACHE_HH_

#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/encoding.hh"
#include "trace/record.hh"

namespace fvc::core {

using trace::Addr;

/** Geometry of an FVC array. */
struct FvcConfig
{
    /** Number of entries (lines); power of two. */
    uint32_t entries = 512;
    /** Line size of the companion DMC, in bytes. */
    uint32_t line_bytes = 32;
    /** Code width in bits (1 -> top 1 value, 3 -> top 7). */
    unsigned code_bits = 3;
    /** Associativity; the paper's FVC is direct mapped. */
    uint32_t assoc = 1;

    uint32_t wordsPerLine() const
    {
        return line_bytes / trace::kWordBytes;
    }
    uint32_t sets() const { return entries / assoc; }

    void validate() const;

    /**
     * Storage cost in bits: per entry, a tag (32 - offset - index
     * bits), valid + dirty bits, and wordsPerLine() codes.
     */
    uint64_t storageBits() const;

    std::string describe() const;
};

/**
 * A line evicted or merged out of the FVC. The codes view storage
 * the FVC owns; they stay valid until its next insertLine or
 * writeAllocate.
 */
struct FvcEvicted
{
    Addr base;
    bool dirty;
    /** One code per word (decode with the FVC's encoding); the
     * non-frequent code where the word is not held. */
    std::span<const Code> codes;
};

/**
 * The FVC array. Pure structure: protocol decisions (when to
 * insert, how to merge) live in DmcFvcSystem.
 */
class FrequentValueCache
{
  public:
    FrequentValueCache(const FvcConfig &config,
                       FrequentValueEncoding encoding);

    const FvcConfig &config() const { return config_; }
    const FrequentValueEncoding &encoding() const
    {
        return encoding_;
    }

    /** True iff the entry for @p addr matches its tag. */
    bool tagMatch(Addr addr) const;

    /** Outcome of a single-probe combined lookup. */
    enum class ProbeOutcome {
        /** No entry with a matching tag. */
        NoTag,
        /** Tag matched but the word/value was non-frequent. */
        NonFrequent,
        /** Tag matched and the word/value was frequent. */
        Hit,
    };

    /**
     * One-probe read: tagMatch() + readWord() fused, since the
     * system probes the FVC on every DMC miss. On Hit, @p value
     * receives the decoded word.
     */
    ProbeOutcome probeRead(Addr addr, Word &value);

    /**
     * One-probe write: tagMatch() + writeWord() fused. On Hit the
     * code is updated and the entry marked dirty.
     */
    ProbeOutcome probeWrite(Addr addr, Word value);

    /**
     * Read the word at @p addr.
     *
     * @return the decoded value if the tag matches and the word's
     *         code is frequent; nullopt otherwise
     */
    std::optional<Word> readWord(Addr addr);

    /**
     * Write @p value at @p addr if the tag matches and the value is
     * frequent.
     *
     * @retval true the write hit (code updated, line dirty)
     * @retval false tag mismatch or non-frequent value
     */
    bool writeWord(Addr addr, Word value);

    /**
     * Install the identity of a line from its codes
     * (FrequentValueEncoding::encodeLine): every word that holds a
     * frequent value is coded, the rest are marked non-frequent.
     *
     * @param base line base address
     * @param codes the line's wordsPerLine() codes
     * @param dirty whether the installed codes are newer than memory
     * @return the displaced entry, if any
     */
    std::optional<FvcEvicted> insertLine(
        Addr base, std::span<const Code> codes, bool dirty);

    /**
     * Allocate an entry for a frequent-value write miss: the
     * written word is coded, all other words marked non-frequent,
     * entry dirty (Section 3's write-allocation rule).
     *
     * @return the displaced entry, if any
     */
    std::optional<FvcEvicted> writeAllocate(Addr addr, Word value);

    /** Remove the entry for @p addr if its tag matches. */
    std::optional<FvcEvicted> invalidate(Addr addr);

    /** Remove every valid entry (codes valid until the next
     * insertLine or writeAllocate). */
    std::vector<FvcEvicted> flush();

    /**
     * Replace the frequent-value set. All entries must already be
     * flushed (codes are meaningless under a new mapping); the new
     * encoding must have the same code width.
     */
    void rekey(FrequentValueEncoding encoding);

    /** Number of valid entries. */
    uint32_t validLines() const { return valid_entries_; }

    /**
     * Fraction (0..1) of code slots in valid entries that hold
     * frequent codes — Figure 11's occupancy metric. Both counts are
     * kept current on every change, so this does not scan.
     */
    double frequentCodeFraction() const;

  private:
    struct Entry
    {
        uint64_t tag = 0;
        bool valid = false;
        bool dirty = false;
        uint64_t stamp = 0;
    };

    FvcConfig config_;
    FrequentValueEncoding encoding_;
    std::vector<Entry> entries_;
    /** Every entry's codes, one byte each: entry i at
     * i * words_per_line_. */
    std::vector<Code> codes_;
    /** The last displaced entry's codes, saved before its slot is
     * reused. */
    std::vector<Code> evicted_codes_;
    uint32_t words_per_line_ = 0;
    /** Valid entries, and frequent codes among their slots. */
    uint32_t valid_entries_ = 0;
    uint64_t frequent_codes_ = 0;
    uint64_t clock_ = 0;
    /** Geometry precomputed from config_ (probed on every access). */
    unsigned offset_bits_ = 0;
    unsigned tag_shift_ = 0;
    uint32_t set_mask_ = 0;

    unsigned offsetBits() const { return offset_bits_; }
    unsigned indexBits() const
    {
        return tag_shift_ - offset_bits_;
    }
    uint32_t setIndex(Addr addr) const
    {
        return (addr >> offset_bits_) & set_mask_;
    }
    uint64_t tagOf(Addr addr) const { return addr >> tag_shift_; }
    uint32_t wordOffset(Addr addr) const
    {
        return (addr & (config_.line_bytes - 1)) / trace::kWordBytes;
    }
    Addr baseOf(const Entry &entry, uint32_t set) const;

    Entry *findEntry(Addr addr);
    const Entry *findEntry(Addr addr) const;
    Entry &victimEntry(uint32_t set);
    std::span<Code> codesOf(const Entry &entry)
    {
        size_t i = static_cast<size_t>(&entry - entries_.data());
        return {codes_.data() + i * words_per_line_, words_per_line_};
    }
    /** Frequent codes in @p codes. */
    uint32_t frequentIn(std::span<const Code> codes) const;
    /** An entry claimed for a new line: the caller writes its codes
     * and adds the frequent ones to frequent_codes_. */
    struct Claim
    {
        std::span<Code> codes;
        /** The valid entry the slot held, if any. */
        std::optional<FvcEvicted> evicted;
    };
    /** Pick the slot for @p addr's (non-resident) line, save the
     * entry it displaces in evicted_codes_ (dropping its codes from
     * the occupancy counts), and install the new tag. */
    Claim claim(Addr addr, bool dirty);
    /** Invalidate @p entry (in @p set) and return its contents. */
    FvcEvicted retire(Entry &entry, uint32_t set);
};

} // namespace fvc::core

#endif // FVC_CORE_FVC_CACHE_HH_
