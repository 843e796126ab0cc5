/**
 * @file
 * FunctionalMemory: a sparse word-granularity value store.
 *
 * This is the ground-truth memory image used by the workload
 * generators (so loads return the values earlier stores wrote), by
 * the cache models as the backing store, and by the profilers for
 * occurrence sampling (the paper samples the contents of all
 * referenced memory locations every 10M instructions).
 *
 * Storage is paged: a hash map of fixed-size pages, so a 4 GB
 * address space costs memory proportional only to the touched
 * footprint. Each word carries a referenced bit (the paper's notion
 * of a location being "of interest") and pages track allocation
 * epochs so that stack reuse can be distinguished from value
 * mutation (needed for Table 4's constancy study).
 */

#ifndef FVC_MEMMODEL_FUNCTIONAL_MEMORY_HH_
#define FVC_MEMMODEL_FUNCTIONAL_MEMORY_HH_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "trace/record.hh"
#include "util/error.hh"

namespace fvc::memmodel {

using trace::Addr;
using trace::Word;

/** Words per page (4 KB pages of 4-byte words). */
inline constexpr uint32_t kPageWords = 1024;
/** Bytes per page. */
inline constexpr uint32_t kPageBytes = kPageWords * trace::kWordBytes;

/** One page of backing store. */
struct Page
{
    Word data[kPageWords] = {};
    /** Bit i set iff word i has ever been loaded or stored. */
    uint64_t referenced[kPageWords / 64] = {};
    /** Bit i set iff word i is inside a live allocation. */
    uint64_t live[kPageWords / 64] = {};
};

/** Sparse 32-bit word-addressable memory. */
class FunctionalMemory
{
  public:
    FunctionalMemory() = default;
    /** Deep copy (pages are duplicated). */
    FunctionalMemory(const FunctionalMemory &other);
    FunctionalMemory &operator=(const FunctionalMemory &other);
    FunctionalMemory(FunctionalMemory &&other) noexcept;
    FunctionalMemory &operator=(FunctionalMemory &&other) noexcept;

    /** Read the word at @p addr (0 if never written). */
    Word read(Addr addr) const;

    /**
     * Non-const overload: also refreshes the last-page cache, so a
     * line fetch's consecutive reads cost one hash lookup total.
     */
    Word read(Addr addr);

    /** Write @p value to the word at @p addr, marking it referenced. */
    void write(Addr addr, Word value);

    /**
     * Read and mark referenced (loads make a location "of interest"
     * even before it is written).
     */
    Word readReferenced(Addr addr);

    /** True iff the word has ever been accessed. */
    bool isReferenced(Addr addr) const;

    /**
     * Mark [base, base+bytes) as a live allocation (Alloc record).
     * Referenced bits are left untouched.
     */
    void allocRegion(Addr base, uint64_t bytes);

    /**
     * Mark [base, base+bytes) deallocated (Free record): the words
     * stop being "of interest" until re-allocated and re-referenced.
     */
    void freeRegion(Addr base, uint64_t bytes);

    /**
     * True iff the word counts as interesting for occurrence
     * sampling: referenced and (if allocation is tracked for its
     * page) still live.
     */
    bool isInteresting(Addr addr) const;

    /** Number of words currently interesting. */
    uint64_t interestingWords() const;

    /**
     * Visit every interesting word, in address order within a page
     * but unspecified page order.
     *
     * @param visitor called with (byte address, value)
     */
    void forEachInteresting(
        const std::function<void(Addr, Word)> &visitor) const;

    /** Number of resident pages. */
    size_t pageCount() const { return pages_.size(); }

    /** Drop all contents. */
    void clear();

    /** Deep-compare two memories over interesting words. */
    static bool sameInterestingContents(const FunctionalMemory &a,
                                        const FunctionalMemory &b);

    /**
     * Serialize the full page set (data + referenced + live bits)
     * to a flat byte image: u64 page count, then pages sorted by
     * page number. Deterministic — equal memories serialize to
     * equal bytes. Used by the persistent trace store
     * (trace/trace_store.hh); host-endian like the rest of the
     * store format.
     */
    std::vector<uint8_t> serialize() const;

    /** Inverse of serialize(); structured errors on malformed
     * input (never asserts — store files are external input). */
    static util::Expected<FunctionalMemory>
    deserialize(const uint8_t *data, size_t bytes);

  private:
    std::unordered_map<uint32_t, std::unique_ptr<Page>> pages_;
    /**
     * One-entry cache of the last page touched by a mutating
     * accessor: sequential access streams (line fetches,
     * writebacks, image installs) skip the hash lookup. Page
     * pointers are heap-stable across map growth, so the cache only
     * needs resetting when pages are dropped (clear, copy-assign).
     * Const accessors consult but never update it, keeping
     * concurrent reads of a shared immutable memory race-free.
     */
    uint32_t last_page_num_ = 0;
    Page *last_page_ = nullptr;

    Page &pageFor(Addr addr);
    const Page *pageIfPresent(Addr addr) const;

    static uint32_t pageNumber(Addr addr) { return addr / kPageBytes; }
    static uint32_t pageOffsetWords(Addr addr)
    {
        return (addr % kPageBytes) / trace::kWordBytes;
    }
};

} // namespace fvc::memmodel

#endif // FVC_MEMMODEL_FUNCTIONAL_MEMORY_HH_
