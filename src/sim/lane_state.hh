/**
 * @file
 * Struct-of-arrays lane state for the SIMD multi-configuration
 * replay kernel.
 *
 * The per-cell models (cache::DmcSystem / core::DmcFvcSystem)
 * replay the trace once per grid cell, each through its own
 * heap-allocated cache objects. The lane kernel keeps the
 * per-config state of a whole grid as *lane groups* instead: cells
 * whose configs share (line_bytes, assoc, replacement, code_bits)
 * — and therefore share control flow on the hot path — become
 * lanes of one group, and
 * their line state is stored as contiguous columns (tag / dirty /
 * stamp, plus FVC tag / dirty / stamp / present) concatenated
 * lane-after-lane in one arena allocation per group. The hot
 * probe walks those columns one of two ways (lane_kernel_impl.hh).
 * Direct-mapped groups under a vector kernel take the inline chunk
 * walk: a gather+compare predicts each chunk's hits, runs of hits
 * retire in bulk, and each miss runs the protocol inline.
 * Associative groups, and every group under lane-scalar, take the
 * queue walk: a hit loop retires hits and appends every miss to a
 * per-lane queue segment (MissEntry), and a drain resolves the
 * queued misses lane by lane so each lane's DMC/FVC columns stay
 * register/L1-resident through the whole slow path. An occupancy
 * sample due mid-block puts a lane on the fully inline per-record
 * walk for that block, so one divergent lane never serializes its
 * group.
 *
 * Validity and the dirty bit are encoded in the DMC tag word
 * itself: an invalid line holds kLaneInvalidTag, which no real tag
 * can equal (tags are 32-bit addresses shifted right by at least
 * offsetBits() >= 2, so they never reach bit 30), and a dirty line
 * carries kLaneDirtyBit in bit 31. The probe is a single masked
 * compare with no separate valid-bit or dirty-byte load, and a
 * store hit dirties the line by OR-ing the tag word it just
 * probed — the state a line access touches is exactly one 32-bit
 * word.
 *
 * Bit-identity: misses resolve in record order on either walk (on
 * the queue walk, so does every record aliasing a queued miss's
 * set), so RNG streams, FVC clocks, counters, and the occupancy
 * double accumulate exactly as in
 * DmcFvcSystem; within a set, hit stamps and install stamps
 * also keep record order, and stamps are only ever compared within
 * one set. Lanes are mutually independent within a block (the
 * shared program-order image is only advanced at block boundaries;
 * in-block reads overlay the block's store log, see BlockCtx).
 * DESIGN.md section 13 gives the full argument.
 */

#ifndef FVC_SIM_LANE_STATE_HH_
#define FVC_SIM_LANE_STATE_HH_

#include <bit>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "cache/config.hh"
#include "cache/stats.hh"
#include "core/dmc_fvc_system.hh"
#include "memmodel/functional_memory.hh"
#include "sim/batch_encoder.hh"
#include "util/random.hh"

namespace fvc::sim {

using trace::Addr;
using trace::Word;

/**
 * Tag sentinel marking an invalid line/entry (see file header). All
 * tag bits below the dirty bit set — unreachable because real tags
 * are addresses shifted right by at least 2.
 */
inline constexpr uint32_t kLaneInvalidTag = 0x7fffffffu;

/** DMC dirty flag, packed into bit 31 of the line's tag word. */
inline constexpr uint32_t kLaneDirtyBit = 0x80000000u;

/** Records per kernel block: one BatchEncoder mask word. */
inline constexpr size_t kLaneBlockRecords = 64;

/**
 * Sentinel slots appended to each DMC tag column so the SIMD
 * findWay can issue a full-width (up to 16-lane) load at any set
 * start without leaving the allocation. Sentinels never compare
 * equal to a real tag, and matches beyond the set's assoc are
 * masked off anyway.
 */
inline constexpr size_t kLaneTagPad = 16;

/**
 * Per-word frequent-value bits mirroring the shared image,
 * maintained incrementally as the image advances.
 *
 * The eviction path needs the victim line's frequent-word mask,
 * which the per-cell model computes by reading every word of the
 * line from the image and searching the encoding table. Misses are
 * common enough on the SPEC profiles (10-20% of accesses) that this
 * scan dominates the whole sweep. The map caches the encode: byte w
 * of a page holds, in bit g, whether the image's current value of
 * word w is frequent under encoding group g (one bit per distinct
 * code_bits in the grid, at most 8 groups). Pages materialize
 * lazily from the image on the first eviction that touches them;
 * thereafter the replay loop pushes every store's precomputed
 * frequent bit into the map as it advances the image, so a line's
 * mask costs words_per_line byte loads instead of words_per_line
 * image reads plus a table search.
 */
class FreqWordMap
{
  public:
    /** @p encoders: one per encoding group, at most 8 groups. */
    void init(const BatchEncoder *const *encoders, size_t n_groups);

    /**
     * Frequent-word mask (bit w set iff word w is frequent under
     * group @p group) of the line [base, base + words * 4).
     * Materializes the containing 64-word segment from @p image on
     * first touch; the non-const image reference only feeds its
     * last-page read cache.
     */
    uint64_t lineMask(memmodel::FunctionalMemory &image, Addr base,
                      uint32_t words, unsigned group);

    /**
     * The image is advancing: word @p addr now holds a value whose
     * per-group frequent bits are the low bits of @p byte. Pages
     * the map has not materialized are skipped — they pick up the
     * new value from the image when first touched.
     */
    void noteStore(Addr addr, uint8_t byte);

  private:
    /** Words per lazily-encoded segment (one frequentMask batch). */
    static constexpr uint32_t kSegWords = 64;

    struct FreqPage
    {
        /** Padded so an 8-byte mask-extraction load issued for the
         * first word of a short line at page end stays in bounds. */
        uint8_t bits[memmodel::kPageWords + 8];
        /** Bit s set iff segment s's bytes are materialized.
         * Evictions touch a sparse subset of a page's lines, so
         * encoding is deferred segment by segment. */
        uint64_t seg_valid = 0;
    };

    FreqPage *pageFor(uint32_t page_num);
    void materializeSegment(memmodel::FunctionalMemory &image,
                            uint32_t page_num, FreqPage &page,
                            uint32_t seg);

    /** Direct-mapped page-lookup cache slots (eviction streams
     * alternate between victim and store pages, so a single-entry
     * cache would thrash). */
    static constexpr uint32_t kCacheSlots = 128;

    struct CacheSlot
    {
        uint32_t num = 0;
        bool cached = false;
        /** nullptr = page known absent. Never goes stale: the only
         * absent-to-present transition is pageFor, which refreshes
         * the slot. */
        FreqPage *page = nullptr;
    };

    std::unordered_map<uint32_t, std::unique_ptr<FreqPage>> pages_;
    const BatchEncoder *const *encoders_ = nullptr;
    size_t n_groups_ = 0;
    CacheSlot slots_[kCacheSlots];
};

/**
 * Per-block inputs shared by every lane group: the record columns,
 * precomputed op/frequent masks, and the block's program-order
 * store log. The shared functional image holds the newest value of
 * every word *as of the block's first record*; a value read at
 * in-block time i is the image value overlaid with the log's
 * stores at record indices < i (the log is in record order, so the
 * overlay is a prefix scan).
 */
struct BlockCtx
{
    const Addr *addrs = nullptr;
    const Word *values = nullptr;
    /** Records in this block (<= kLaneBlockRecords). */
    size_t n = 0;
    /** Bit i set iff record i is a load or store. */
    uint64_t access_mask = 0;
    /** Bit i set iff record i is a store. */
    uint64_t store_mask = 0;
    /** Per encoding group: bit i iff values[i] is frequent. */
    const uint64_t *freq_masks = nullptr;
    /** Program-order store log (record order, stores only). */
    const Addr *store_addr = nullptr;
    const Word *store_val = nullptr;
    const uint8_t *store_rec = nullptr;
    uint32_t n_stores = 0;
    /**
     * Bloom filter over the log's store addresses at 32-byte
     * granularity: bit (addr >> 5) & 63 set per store. An eviction
     * whose victim line matches no filter bit skips the log scan
     * entirely — most victims were never stored to in the block.
     * Zero means "no stores or not computed": scan unconditionally
     * (callers that build a BlockCtx by hand need not fill it).
     */
    uint64_t store_line_filter = 0;
    /** Shared image, frozen at the block's first record. */
    memmodel::FunctionalMemory *image = nullptr;
    /** Frequent-bit mirror of the image, same freeze point. */
    FreqWordMap *freq_map = nullptr;
};

/** One grid cell's slice of a lane group. */
struct Lane
{
    /** Cell index in the owning MultiConfigSimulator. */
    size_t cell = 0;

    // DMC geometry. offset bits / assoc / replacement are
    // group-uniform and live on LaneGroup.
    uint32_t dmc_base = 0; ///< first line index in the group columns
    uint32_t dmc_lines = 0;
    uint32_t dmc_set_mask = 0;
    uint8_t dmc_tag_shift = 0;
    uint32_t line_bytes = 0;

    // FVC geometry (FVC groups only).
    uint32_t fvc_base = 0; ///< first entry index in the group columns
    uint32_t fvc_entries = 0;
    uint32_t fvc_assoc = 0;
    uint32_t fvc_set_mask = 0;
    uint8_t fvc_offset_bits = 0;
    uint8_t fvc_tag_shift = 0;
    uint8_t words_per_line = 0;

    // Protocol policy (may diverge per lane; miss path only).
    bool skip_barren = true;
    bool write_alloc = true;
    uint64_t sample_interval = 0;
    uint64_t countdown = 0;

    // Replacement/stamp state, mirrored from the scalar models.
    uint64_t dmc_clock = 0;
    uint64_t fvc_clock = 0;
    util::Rng rng{12345};

    cache::CacheStats stats;
    core::FvcStats fvc_stats;
};

/**
 * One FVC entry, packed so a direct-mapped probe touches exactly one
 * cache line: present mask, stamp, tag, and dirty all travel
 * together, and the 32-byte alignment keeps an entry from straddling
 * a line boundary. The miss path is scalar (no vector code reads
 * FVC columns), so array-of-structs beats split columns here — every
 * DMC miss probes the FVC, and the split layout cost three or four
 * line touches per probe.
 */
struct alignas(32) FvcEntry
{
    uint64_t present = 0;
    uint64_t stamp = 0;
    uint32_t tag = kLaneInvalidTag;
    uint8_t dirty = 0;
};

/** Word index of @p addr within its line. */
inline uint32_t
fvcWordOffset(const Lane &lane, Addr addr)
{
    return (addr & (lane.line_bytes - 1)) / trace::kWordBytes;
}

/** Writeback accounting for an FVC entry leaving the cache (only
 * the present words travel). */
inline void
writebackFvcMeta(Lane &lane, uint64_t present, bool dirty)
{
    if (!dirty)
        return;
    ++lane.fvc_stats.fvc_writebacks;
    ++lane.stats.writebacks;
    lane.stats.writeback_bytes +=
        static_cast<uint64_t>(std::popcount(present)) *
        trace::kWordBytes;
}

/**
 * One deferred miss, appended by the phase-1 hit loop and resolved
 * by the phase-2 drain (both in lane_kernel_impl.hh). 16 bytes so a
 * lane's worst-case segment (kLaneBlockRecords entries) is 1 KiB —
 * L1-resident for the whole drain. Entries live only between a
 * block's phase 1 and its drain; nothing persists across blocks.
 */
struct MissEntry
{
    /** Line-column index of the record's set start (dmc_base +
     * set * assoc), precomputed so the drain never re-derives it. */
    uint32_t idx = 0;
    /** DMC probe tag (dirty bit excluded). */
    uint32_t tag = 0;
    /** First entry index of the record's FVC set (FVC groups only;
     * drain prefetches the 32-byte row one slot ahead). */
    uint32_t fvc_e = 0;
    /** Record index within the block (store-log overlay reads). */
    uint8_t rec = 0;
    /** kMissFrozen or 0. */
    uint8_t flags = 0;
    uint16_t pad = 0;
};

/**
 * MissEntry flag: the phase-1 probe ran and missed while the lane's
 * tags were frozen. The drain may skip the re-probe unless an
 * earlier drained miss installed into the entry's set; entries
 * queued without probing (set aliased an earlier queued miss) carry
 * flags 0 and always re-probe.
 */
inline constexpr uint8_t kMissFrozen = 1;

/**
 * A lane group: cells with compatible configs and the SoA columns
 * holding their line state. Columns are concatenated lane-major
 * (lane l's lines occupy [lanes[l].dmc_base,
 * lanes[l].dmc_base + dmc_lines)), so the whole group streams from
 * contiguous memory and a vector kernel can address any lane's set
 * as base + set * assoc with one per-lane base offset.
 */
struct LaneGroup
{
    uint64_t key = 0;
    bool is_fvc = false;
    /** Encoding group (BatchEncoder + mask) index; FVC groups. */
    unsigned enc_group = 0;

    // Group-uniform geometry.
    uint32_t assoc = 1;
    uint32_t line_bytes = 32;
    uint8_t offset_bits = 5;
    uint8_t log2_assoc = 0;
    cache::Replacement replacement = cache::Replacement::LRU;

    std::vector<Lane> lanes;

    // DMC line columns (one slot per line, all lanes). The tag word
    // carries the dirty bit (kLaneDirtyBit) and validity
    // (kLaneInvalidTag) — see file header.
    std::vector<uint32_t> dmc_tags;
    std::vector<uint64_t> dmc_stamps;

    // FVC entry column (one slot per entry, all lanes).
    std::vector<FvcEntry> fvc;

    // Miss-queue arena: lane l's segment is the kLaneBlockRecords
    // entries at [l * kLaneBlockRecords, ...), and miss_count[l]
    // says how many phase 1 appended this block. Sized in
    // finalize(); a segment can never overflow because each of a
    // block's <= kLaneBlockRecords records queues at most once.
    std::vector<MissEntry> miss_queue;
    std::vector<uint32_t> miss_count;

    // Exact queued/installed-set marks, one u32 per dmc_tags slot
    // (indexed by the same set-start column index). A set is marked
    // iff its slot equals the pass's epoch — a fresh value from
    // epoch_counter per lane per phase — so marks from earlier
    // blocks/lanes expire without any clearing. A wrapped counter
    // aliasing an ancient mark merely queues (or re-probes) a
    // record it did not need to, which the drain resolves to the
    // same outcome.
    std::vector<uint32_t> queue_epoch;
    uint32_t epoch_counter = 0;
};

/**
 * The lane groups of one sweep grid. Build with addDmcLane /
 * addFvcLane (cell add order), then finalize() to allocate the
 * column arenas before running any kernel block.
 */
class LaneGroupSet
{
  public:
    /** Add a bare DMC cell as a lane. */
    void addDmcLane(size_t cell, const cache::CacheConfig &config);

    /** Add a DMC+FVC cell as a lane of encoding group @p enc_group. */
    void addFvcLane(size_t cell, const cache::CacheConfig &dmc,
                    const core::FvcConfig &fvc,
                    const core::DmcFvcPolicy &policy,
                    unsigned enc_group);

    /** Allocate the SoA columns; call once after the last add. */
    void finalize();

    std::vector<LaneGroup> &groups() { return groups_; }
    const std::vector<LaneGroup> &groups() const { return groups_; }

    /** Account the end-of-run flush for every lane (DMC then FVC,
     * index order — the order DmcFvcSystem::flush uses). */
    void flush();

    /** One occupancy sample; mirrors
     * DmcFvcSystem::sampleOccupancy. */
    static void sampleOccupancy(LaneGroup &g, Lane &lane);

  private:
    LaneGroup &groupFor(uint64_t key, bool is_fvc,
                        const cache::CacheConfig &dmc,
                        unsigned enc_group);

    std::vector<LaneGroup> groups_;
    bool finalized_ = false;
};

} // namespace fvc::sim

#endif // FVC_SIM_LANE_STATE_HH_
