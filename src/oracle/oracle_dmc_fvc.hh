/**
 * @file
 * OracleDmcFvc: a deliberately naive, protocol-literal reference
 * implementation of the paper's DMC + FVC transfer protocol
 * (Section 3), written straight from the prose as an independent
 * check on the optimized production simulators.
 *
 * What "protocol-literal" means here (and what it excludes):
 *
 *  - The FVC data field is an explicit per-word array of b-bit code
 *    values (one plain byte per code) held in each entry, not a
 *    shared flat array with running occupancy counts.
 *  - Frequent-value encoding is a linear scan over the value list in
 *    code order — no sorted tables, no branchless lookups, no
 *    8-wide batch encoding.
 *  - The oracle keeps its own word-granularity memory map and reads
 *    victim-line values from its own cache arrays; it never recovers
 *    values from a shared program-order image (the single-pass
 *    engine's trick) and never fuses tag probe + word lookup.
 *  - Every access is processed one record at a time; there is no
 *    batching, chunking, or precomputation of any kind.
 *  - Statistics are accumulated by its own counters, structured the
 *    same way as cache::CacheStats / core::FvcStats so differential
 *    comparison is field-by-field.
 *
 * What it deliberately shares with the production models, because it
 * is part of the modeled hardware's specification rather than an
 * implementation shortcut: the replacement metadata semantics (LRU
 * stamps touched on hits, FIFO/insertion stamps, and the seeded
 * util::Rng stream for Random replacement) and the occupancy
 * sampling schedule (first sample at access number `interval`).
 *
 * Test hook: the FVC_ORACLE_MUTATE environment variable plants one
 * of five known protocol bugs into the oracle (see Mutation); the
 * differential fuzzer must detect each one and shrink a failing
 * trace to a minimal counterexample. Unset means no mutation; an
 * unknown name is a fatal configuration error.
 */

#ifndef FVC_ORACLE_ORACLE_DMC_FVC_HH_
#define FVC_ORACLE_ORACLE_DMC_FVC_HH_

#include <map>
#include <optional>
#include <vector>

#include "cache/config.hh"
#include "cache/stats.hh"
#include "core/dmc_fvc_system.hh"
#include "memmodel/functional_memory.hh"
#include "trace/record.hh"
#include "util/random.hh"

namespace fvc::oracle {

using trace::Addr;
using trace::Word;

/** Planted protocol bugs for fuzzer validation (FVC_ORACLE_MUTATE). */
enum class Mutation {
    None,
    /** Read-miss merge skipped: a fetched line ignores the FVC's
     * newer values (installs stale memory words, drops dirtiness). */
    SkipReadMerge,
    /** Encoder wired with the wrong reserved-code boundary: the
     * last encodable frequent value is treated as non-frequent. */
    WrongReservedCode,
    /** The barren-insertion scan reads the victim line's words from
     * memory *before* the writeback, i.e. stale values. */
    StaleVictimScan,
    /** Frequent-value write allocation skipped: every write miss
     * fetches the line instead. */
    SkipWriteAllocate,
    /** FVC write hits do not mark the entry dirty. */
    NoWriteDirty,
};

/** Parse FVC_ORACLE_MUTATE (empty/unset = None; unknown = fatal). */
Mutation mutationFromEnv();

/** The spelled-out name of a mutation ("none" for Mutation::None). */
const char *mutationName(Mutation m);

/** The slow reference simulator. */
class OracleDmcFvc
{
  public:
    /**
     * @param frequent_values profiled frequent values, most frequent
     *        first, exactly as handed to harness::runDmcFvc (the
     *        oracle applies the same truncation-to-capacity and
     *        duplicate-skipping rules by its own naive loop)
     */
    OracleDmcFvc(const cache::CacheConfig &dmc,
                 const core::FvcConfig &fvc,
                 const std::vector<Word> &frequent_values,
                 core::DmcFvcPolicy policy = {},
                 Mutation mutation = mutationFromEnv());

    /** Preload one memory word (the trace's initial image). */
    void installWord(Addr addr, Word value);

    /** Process one load/store record. */
    void access(const trace::MemRecord &rec);

    /** End-of-run flush: DMC then FVC, set-major order. */
    void flush();

    const cache::CacheStats &stats() const { return stats_; }
    const core::FvcStats &fvcStats() const { return fvc_stats_; }
    Mutation mutation() const { return mutation_; }

    /** Rendered state of the DMC set covering @p addr (reports). */
    std::vector<std::vector<std::string>> dmcSetState(Addr addr) const;
    /** Rendered state of the FVC set covering @p addr (reports). */
    std::vector<std::vector<std::string>> fvcSetState(Addr addr) const;

  private:
    /** A main-cache line: valid/dirty/tag/stamp plus word values. */
    struct DmcLine
    {
        bool valid = false;
        bool dirty = false;
        uint64_t tag = 0;
        uint64_t stamp = 0;
        std::vector<Word> data;
    };

    /** An FVC entry: explicit per-word code array (one byte each). */
    struct FvcEntry
    {
        bool valid = false;
        bool dirty = false;
        uint64_t tag = 0;
        uint64_t stamp = 0;
        std::vector<uint8_t> codes;
    };

    cache::CacheConfig dmc_config_;
    core::FvcConfig fvc_config_;
    core::DmcFvcPolicy policy_;
    Mutation mutation_;

    /** The frequent values in code order (truncated, deduplicated). */
    std::vector<Word> values_;
    uint8_t non_frequent_code_ = 0;

    std::vector<DmcLine> dmc_lines_;
    uint64_t dmc_clock_ = 0;
    util::Rng dmc_rng_;

    std::vector<FvcEntry> fvc_entries_;
    uint64_t fvc_clock_ = 0;

    /** The oracle's own memory image: a plain sorted word map. */
    std::map<Addr, Word> memory_;

    cache::CacheStats stats_;
    core::FvcStats fvc_stats_;
    uint64_t access_count_ = 0;
    uint64_t sample_countdown_ = 0;

    // --- naive encoding -------------------------------------------
    uint8_t encode(Word value) const;
    std::optional<Word> decode(uint8_t code) const;
    bool isFrequent(Word value) const;

    // --- memory ----------------------------------------------------
    Word memRead(Addr addr) const;
    void memWrite(Addr addr, Word value);

    // --- DMC -------------------------------------------------------
    uint32_t dmcSet(Addr addr) const;
    uint64_t dmcTag(Addr addr) const;
    Addr dmcBase(const DmcLine &line, uint32_t set) const;
    DmcLine *dmcProbe(Addr addr);
    const DmcLine *dmcProbe(Addr addr) const;
    uint32_t dmcVictimWay(uint32_t set);

    // --- FVC -------------------------------------------------------
    uint32_t fvcSet(Addr addr) const;
    uint64_t fvcTag(Addr addr) const;
    Addr fvcBase(const FvcEntry &entry, uint32_t set) const;
    uint32_t fvcWordOffset(Addr addr) const;
    FvcEntry *fvcFind(Addr addr);
    const FvcEntry *fvcFind(Addr addr) const;
    FvcEntry &fvcVictim(uint32_t set);

    // --- protocol steps -------------------------------------------
    void writebackFvcEntry(const FvcEntry &entry, Addr base);
    void writebackDmcLine(const DmcLine &line, Addr base);
    void handleDmcEviction(const DmcLine &line, Addr base);
    void fetchInstall(Addr addr);
    void sampleOccupancy();
};

} // namespace fvc::oracle

#endif // FVC_ORACLE_ORACLE_DMC_FVC_HH_
