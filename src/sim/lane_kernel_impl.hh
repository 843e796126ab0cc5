/**
 * @file
 * The shared lane-kernel hot loop, parameterized on an ISA traits
 * type. Included by the per-ISA TUs only — not a public header.
 *
 * Traits provide the vertical primitives:
 *
 *   precompute(group, lane, addrs, n, idx, tag)
 *       fill per-record line-column indices (set base) and tags for
 *       one lane — pure u32 shift/mask/add columns, the natural
 *       8/16-wide vector op;
 *   findWay(way_tags, assoc, tag) -> way or -1
 *       the N-way tag compare against one set's contiguous tag
 *       column (first match wins; the columns carry kLaneTagPad
 *       sentinel slots so a full-width vector load at any set start
 *       stays in bounds);
 *   minStampWay(stamps, assoc) -> way
 *       strict-min-stamp victim over one set's u64 stamp column
 *       (first wins) — the drain's vertical replacement selection;
 *   fvcFindWay(row, assoc, tag) -> way or -1
 *       the FVC set probe over the 32-byte FvcEntry rows (tag dword
 *       gather for associative sets);
 *   gatherCompare / recompare (kFastDm traits only)
 *       the predicted-hit and prediction-repair primitives of the
 *       direct-mapped chunk walk, see runLaneDm below.
 *
 * Two walks share the miss path (missPathT). Direct-mapped groups
 * take the inline chunk walk (runLaneDm): a vector gather+compare
 * predicts each chunk's hits, runs of hits retire in bulk, each
 * miss runs the full protocol inline, and a one-broadcast repair
 * (recompare) restores the prediction's exactness afterwards.
 * Associative (and scalar-traits) groups run in two phases: phase
 * 1 (queueLaneWalk) retires hits per record and appends misses —
 * plus every later record of a set with a deferral pending,
 * tracked exactly in the group's queue_epoch column (one u32 per
 * tag slot, fresh epoch per use, no clearing) — to the lane's
 * MissEntry queue segment; phase 2 (drainLane) drains each lane's
 * segment in record order with the lane's DMC/FVC state hot.
 * Queue-and-drain was also built for the direct-mapped path and
 * measured slower at both block and chunk granularity; runLaneDm's
 * comment records the numbers.
 *
 * Bit-identity with a per-record walk (the per-cell models
 * DmcSystem / DmcFvcSystem). Inline walk: bulk retirement only
 * ever covers the records *before* the first predicted miss,
 * misses run in record order, and recompare makes the prediction
 * exact again after each install — so the event order is exactly
 * the per-record one. Queue walk: deferring any
 * record of set S forces every later record of S to defer too —
 * all phase-1 retired hits in S precede the first pending record
 * of S in record order, and the drain is in record order, so the
 * within-set event order (probes, stamps, installs) is exactly the
 * per-record one. Absolute dmc_clock values do shift across sets, but
 * stamps are only ever compared within one set and the clock is
 * monotone, so min-stamp victims are identical. RNG draws and
 * fvc_clock advances happen only on the miss path, which runs in
 * record order on either walk, so those streams are identical
 * outright. An epoch-counter wraparound aliasing an ancient mark
 * only re-probes (or defers) a record it did not need to — same
 * outcome either way.
 *
 * Direct-mapped groups skip all stamp/clock maintenance: with one
 * way the victim is always way 0, so victim selection never reads a
 * stamp, and stamps/clocks appear in no statistic — the stores are
 * dead and eliding them is bit-identical for every replacement
 * policy.
 */

#ifndef FVC_SIM_LANE_KERNEL_IMPL_HH_
#define FVC_SIM_LANE_KERNEL_IMPL_HH_

#include <bit>
#include <cstddef>

#include "sim/kernel_stats.hh"
#include "sim/lane_state.hh"
#include "util/logging.hh"

namespace fvc::sim {

struct ScalarLaneTraits
{
    /** No vector gather: the per-record findWay walk is already the
     * cheapest scalar formulation, so the chunked predicted-hit
     * path would only add passes. */
    static constexpr bool kFastDm = false;

    static void
    precompute(const LaneGroup &g, const Lane &lane,
               const Addr *addrs, size_t n, uint32_t *idx,
               uint32_t *tag)
    {
        const uint32_t base = lane.dmc_base;
        const uint32_t mask = lane.dmc_set_mask;
        const unsigned off = g.offset_bits;
        const unsigned la = g.log2_assoc;
        const unsigned ts = lane.dmc_tag_shift;
        for (size_t i = 0; i < n; ++i) {
            idx[i] = base + (((addrs[i] >> off) & mask) << la);
            tag[i] = addrs[i] >> ts;
        }
    }

    static int
    findWay(const uint32_t *tags, uint32_t assoc, uint32_t tag)
    {
        for (uint32_t w = 0; w < assoc; ++w) {
            if ((tags[w] & ~kLaneDirtyBit) == tag)
                return static_cast<int>(w);
        }
        return -1;
    }

    static uint32_t
    minStampWay(const uint64_t *stamps, uint32_t assoc)
    {
        uint32_t best = 0;
        for (uint32_t way = 1; way < assoc; ++way) {
            if (stamps[way] < stamps[best])
                best = way;
        }
        return best;
    }

    static int
    fvcFindWay(const FvcEntry *row, uint32_t assoc, uint32_t tag)
    {
        for (uint32_t way = 0; way < assoc; ++way) {
            if (row[way].tag == tag)
                return static_cast<int>(way);
        }
        return -1;
    }
};

/** First entry index of @p addr's FVC set. */
inline size_t
fvcRowOf(const Lane &lane, Addr addr)
{
    const uint32_t set =
        (addr >> lane.fvc_offset_bits) & lane.fvc_set_mask;
    return lane.fvc_base + static_cast<size_t>(set) * lane.fvc_assoc;
}

/** First invalid entry of the FVC row starting at @p first, else
 * the strict-min-stamp one (first wins). */
inline size_t
fvcVictimAt(const LaneGroup &g, const Lane &lane, size_t first)
{
    // Direct mapped: way 0 wins whether invalid or stamp-minimal.
    if (lane.fvc_assoc == 1)
        return first;
    size_t best = SIZE_MAX;
    for (uint32_t way = 0; way < lane.fvc_assoc; ++way) {
        size_t e = first + way;
        if (g.fvc[e].tag == kLaneInvalidTag)
            return e;
        if (best == SIZE_MAX ||
            g.fvc[e].stamp < g.fvc[best].stamp)
            best = e;
    }
    return best;
}

/** Replacement victim way of DMC set @p set: first invalid way,
 * else RNG / min-stamp by policy. */
template <typename Traits>
inline uint32_t
dmcVictimWayT(LaneGroup &g, Lane &lane, uint32_t set)
{
    // Direct mapped: the victim is way 0 whether it is invalid, the
    // stamp minimum, or rng.below(1). The lane's RNG is only ever
    // drawn here, so skipping the (result-0) draw leaves no
    // observable trace.
    if (g.assoc == 1)
        return 0;
    const size_t base =
        lane.dmc_base + static_cast<size_t>(set) * g.assoc;
    // The invalid-way search is the probe compare against the
    // sentinel: no valid tag equals kLaneInvalidTag, invalid lines
    // never carry the dirty bit, and findWay's first match is the
    // scalar walk's first invalid way.
    if (int way = Traits::findWay(&g.dmc_tags[base], g.assoc,
                                  kLaneInvalidTag);
        way >= 0) {
        return static_cast<uint32_t>(way);
    }
    switch (g.replacement) {
      case cache::Replacement::Random:
        return static_cast<uint32_t>(lane.rng.below(g.assoc));
      case cache::Replacement::LRU:
      case cache::Replacement::FIFO:
        // Full set: every stamp has been written (installs always
        // stamp when assoc > 1), so the column is comparable.
        return Traits::minStampWay(&g.dmc_stamps[base], g.assoc);
    }
    fvc_panic("unreachable replacement policy");
}

/**
 * The victim line's frequent-word mask at in-block time @p rec. The
 * shared image is frozen at the block's first record, but a
 * per-record replay reads it with every store of record index < rec
 * already applied — so start from the FreqWordMap's frozen bits and
 * overlay the block's store log (record order; later stores
 * overwrite earlier ones). A store's frequent bit is already known:
 * it is the record's bit in the block's per-group frequent mask.
 * The block's Bloom filter skips the scan when no store landed in
 * the victim line — the common case (a zero filter means "not
 * computed" and scans unconditionally; a computed filter is nonzero
 * whenever the log is nonempty).
 */
inline uint64_t
lineFrequentMask(const Lane &lane, const LaneGroup &g,
                 const BlockCtx &ctx, Addr base, unsigned rec)
{
    uint64_t mask = ctx.freq_map->lineMask(*ctx.image, base,
                                           lane.words_per_line,
                                           g.enc_group);
    if (ctx.n_stores == 0)
        return mask;
    if (ctx.store_line_filter != 0) {
        uint64_t fbits = 0;
        for (Addr a = base; a < base + lane.line_bytes; a += 32)
            fbits |= uint64_t{1} << ((a >> 5) & 63);
        if ((ctx.store_line_filter & fbits) == 0)
            return mask;
    }
    const Addr line_mask = lane.line_bytes - 1;
    const uint64_t freq = ctx.freq_masks[g.enc_group];
    for (uint32_t j = 0; j < ctx.n_stores; ++j) {
        if (ctx.store_rec[j] >= rec)
            break;
        Addr a = ctx.store_addr[j];
        if ((a & ~line_mask) == base) {
            uint32_t w = (a & line_mask) / trace::kWordBytes;
            uint64_t bit = (freq >> ctx.store_rec[j]) & 1u;
            mask = (mask & ~(uint64_t{1} << w)) | (bit << w);
        }
    }
    return mask;
}

inline void
handleDmcEviction(LaneGroup &g, Lane &lane, const BlockCtx &ctx,
                  unsigned rec, Addr base, bool dirty)
{
    if (dirty) {
        ++lane.stats.writebacks;
        lane.stats.writeback_bytes += lane.line_bytes;
    }
    uint64_t mask = lineFrequentMask(lane, g, ctx, base, rec);
    if (lane.skip_barren && mask == 0) {
        ++lane.fvc_stats.insertions_skipped;
        return;
    }
    ++lane.fvc_stats.insertions;

    FvcEntry &slot = g.fvc[fvcVictimAt(g, lane, fvcRowOf(lane, base))];
    if (slot.tag != kLaneInvalidTag)
        writebackFvcMeta(lane, slot.present, slot.dirty != 0);
    slot.tag = base >> lane.fvc_tag_shift;
    slot.dirty = 0; // clean insertion: memory just made current
    if (lane.fvc_assoc != 1) // dead store when direct mapped
        slot.stamp = ++lane.fvc_clock;
    slot.present = mask;
}

/**
 * Fetch + install @p addr's line; returns the installed line's
 * column index (so write misses can dirty it). @p fvc_e is the
 * caller's FVC probe result for addr (entry index or SIZE_MAX):
 * addr and its line base share the FVC set and tag — FVC and DMC
 * line sizes match, asserted at lane build — so the exclusivity
 * invalidation reuses the probe instead of walking the row again.
 */
template <typename Traits>
inline size_t
fetchInstallT(LaneGroup &g, Lane &lane, const BlockCtx &ctx,
              unsigned rec, Addr addr, size_t fvc_e)
{
    // FVC overlay + retirement (exclusivity): the line enters the
    // DMC dirty iff the FVC held newer frequent words.
    bool dirty = false;
    if (fvc_e != SIZE_MAX) {
        FvcEntry &entry = g.fvc[fvc_e];
        dirty = entry.dirty != 0 && entry.present != 0;
        entry.tag = kLaneInvalidTag;
        entry.dirty = 0;
    }

    ++lane.stats.fills;
    lane.stats.fetch_bytes += lane.line_bytes;

    uint32_t set = (addr >> g.offset_bits) & lane.dmc_set_mask;
    size_t line = lane.dmc_base +
                  static_cast<size_t>(set) * g.assoc +
                  dmcVictimWayT<Traits>(g, lane, set);
    const uint32_t victim_word = g.dmc_tags[line];
    const uint32_t victim_tag = victim_word & ~kLaneDirtyBit;
    const bool victim_dirty = (victim_word & kLaneDirtyBit) != 0;
    g.dmc_tags[line] =
        static_cast<uint32_t>(addr >> lane.dmc_tag_shift) |
        (dirty ? kLaneDirtyBit : 0);
    if (g.assoc != 1) // dead store when direct mapped
        g.dmc_stamps[line] = ++lane.dmc_clock;

    if (victim_tag != kLaneInvalidTag) {
        Addr victim_base = static_cast<Addr>(
            (static_cast<uint64_t>(victim_tag)
             << lane.dmc_tag_shift) |
            (static_cast<uint64_t>(set) << g.offset_bits));
        handleDmcEviction(g, lane, ctx, rec, victim_base,
                          victim_dirty);
    }
    return line;
}

/**
 * The full per-record protocol after a DMC probe miss; mirrors
 * DmcFvcSystem::access (and SetAssocCache::access, tags only, for
 * bare groups) from the miss point on. @p rec is the record's index within the
 * block (for store-log overlay reads).
 */
template <typename Traits>
inline void
missPathT(LaneGroup &g, Lane &lane, const BlockCtx &ctx,
          unsigned rec, Addr addr, bool is_store, bool frequent)
{
    if (!g.is_fvc) {
        // SetAssocCache::access, miss branch, tags only.
        if (is_store)
            ++lane.stats.write_misses;
        else
            ++lane.stats.read_misses;
        ++lane.stats.fills;
        lane.stats.fetch_bytes += lane.line_bytes;

        uint32_t set = (addr >> g.offset_bits) & lane.dmc_set_mask;
        size_t line = lane.dmc_base +
                      static_cast<size_t>(set) * g.assoc +
                      dmcVictimWayT<Traits>(g, lane, set);
        // Invalid lines are never dirty, so the dirty bit alone
        // decides the writeback.
        if (g.dmc_tags[line] & kLaneDirtyBit) {
            ++lane.stats.writebacks;
            lane.stats.writeback_bytes += lane.line_bytes;
        }
        g.dmc_tags[line] =
            static_cast<uint32_t>(addr >> lane.dmc_tag_shift) |
            (is_store ? kLaneDirtyBit : 0);
        if (g.assoc != 1) // dead store when direct mapped
            g.dmc_stamps[line] = ++lane.dmc_clock;
        return;
    }

    // DmcFvcSystem::access from the DMC-miss point on. One FVC
    // probe serves every branch below, including the fetchInstallT
    // overlay invalidation (see its contract).
    const size_t row = fvcRowOf(lane, addr);
    const int fway = Traits::fvcFindWay(
        &g.fvc[row], lane.fvc_assoc,
        static_cast<uint32_t>(addr >> lane.fvc_tag_shift));
    const size_t e =
        fway >= 0 ? row + static_cast<uint32_t>(fway) : SIZE_MAX;

    if (!is_store) {
        if (e != SIZE_MAX) {
            // Touched even when the word is non-frequent (dead
            // store when direct mapped).
            if (lane.fvc_assoc != 1)
                g.fvc[e].stamp = ++lane.fvc_clock;
            if ((g.fvc[e].present >> fvcWordOffset(lane, addr)) &
                1u) {
                ++lane.stats.read_hits;
                ++lane.fvc_stats.fvc_read_hits;
                return;
            }
            ++lane.stats.read_misses;
            ++lane.fvc_stats.partial_misses;
            fetchInstallT<Traits>(g, lane, ctx, rec, addr, e);
            return;
        }
        ++lane.stats.read_misses;
        fetchInstallT<Traits>(g, lane, ctx, rec, addr, SIZE_MAX);
        return;
    }

    if (e != SIZE_MAX) {
        if (!frequent) {
            // Tag match, non-frequent value: miss; merge the line
            // into the DMC and perform the write there. (No LRU
            // touch — probeWrite bails before stamping.)
            ++lane.stats.write_misses;
            ++lane.fvc_stats.partial_misses;
            size_t line =
                fetchInstallT<Traits>(g, lane, ctx, rec, addr, e);
            g.dmc_tags[line] |= kLaneDirtyBit; // writeWord
            return;
        }
        g.fvc[e].present |= uint64_t{1} << fvcWordOffset(lane, addr);
        g.fvc[e].dirty = 1;
        if (lane.fvc_assoc != 1) // dead store when direct mapped
            g.fvc[e].stamp = ++lane.fvc_clock;
        ++lane.stats.write_hits;
        ++lane.fvc_stats.fvc_write_hits;
        return;
    }

    // Miss in both structures.
    ++lane.stats.write_misses;
    if (lane.write_alloc && frequent) {
        ++lane.fvc_stats.write_allocations;
        FvcEntry &slot = g.fvc[fvcVictimAt(g, lane, row)];
        if (slot.tag != kLaneInvalidTag)
            writebackFvcMeta(lane, slot.present, slot.dirty != 0);
        slot.tag =
            static_cast<uint32_t>(addr >> lane.fvc_tag_shift);
        slot.dirty = 1;
        if (lane.fvc_assoc != 1) // dead store when direct mapped
            slot.stamp = ++lane.fvc_clock;
        slot.present = uint64_t{1} << fvcWordOffset(lane, addr);
        return;
    }
    size_t line =
        fetchInstallT<Traits>(g, lane, ctx, rec, addr, SIZE_MAX);
    g.dmc_tags[line] |= kLaneDirtyBit; // writeWord
}

/**
 * Fully inline per-record walk for a lane whose occupancy-sample
 * countdown can fire mid-block: the sample reads FVC state whose
 * contents depend on every earlier record being resolved, so
 * nothing may defer.
 */
template <typename Traits>
inline void
runLaneCareful(LaneGroup &g, Lane &lane, const BlockCtx &ctx,
               uint64_t freq, bool stamp, const uint32_t *idx,
               const uint32_t *tag)
{
    uint64_t bits = ctx.access_mask;
    while (bits) {
        const unsigned i =
            static_cast<unsigned>(std::countr_zero(bits));
        bits &= bits - 1;
        if (lane.countdown != 0 && --lane.countdown == 0) {
            LaneGroupSet::sampleOccupancy(g, lane);
            lane.countdown = lane.sample_interval;
        }
        const bool is_store = (ctx.store_mask >> i) & 1u;
        const int way = Traits::findWay(&g.dmc_tags[idx[i]],
                                        g.assoc, tag[i]);
        if (way >= 0) {
            const size_t line = idx[i] + static_cast<size_t>(way);
            if (stamp)
                g.dmc_stamps[line] = ++lane.dmc_clock;
            if (is_store) {
                ++lane.stats.write_hits;
                g.dmc_tags[line] |= kLaneDirtyBit;
            } else {
                ++lane.stats.read_hits;
            }
        } else {
            missPathT<Traits>(g, lane, ctx, i, ctx.addrs[i],
                              is_store, (freq >> i) & 1u);
        }
    }
}

/**
 * Walk for one direct-mapped lane. Per Traits::kChunk records: one
 * vector gather of the current tag words at each record's line
 * index and one vector compare (dirty bit masked off) yield a
 * *predicted* hit mask. Predictions are exact up to the first
 * actual miss — only the miss path replaces tags, and a hit's
 * dirty-bit OR never alters the masked compare. So: retire the run
 * of hits before the first miss in bulk (popcount accounting),
 * take the scalar miss path for that record inline, then repair
 * the prediction for just the not-yet-retired records aliasing the
 * missed set against its now-current tag (recompare) and repeat.
 * The repair is what keeps same-line reuse right after a miss —
 * the dominant temporal pattern — on the bulk path.
 *
 * Queue-and-drain variants of this walk were built and measured
 * slower on the gate grid, where only ~20% of lane-records
 * genuinely take the miss path (0.47M of 2.40M/iteration). Any
 * queue must also defer the same-set records *behind* a pending
 * miss — exactly the records this walk's repair retires in bulk —
 * which inflated the drained set to 46% at chunk granularity
 * (1.10M; exact, in-chunk followers only) and 53% at block
 * granularity (1.27M; set-sticky for the whole block, shredding
 * the bulk runs and replaying at ~0.75x of the since-removed
 * per-cell fused loop). The inflation drains as re-probe *hits*: pure MissEntry
 * round-trip, re-probe, and drain-setup overhead (~30 cycles per
 * deferred record) on top of identical miss-path work — ~44 ms vs
 * ~32 ms inline even at chunk granularity. The queue engine earns
 * its keep only where prediction cannot: the associative walk
 * below. Returns the number of records that took the miss path
 * (phase accounting).
 */
template <typename Traits>
inline uint32_t
runLaneDm(LaneGroup &g, Lane &lane, const BlockCtx &ctx,
          uint64_t freq, const uint32_t *idx, const uint32_t *tag)
{
    constexpr unsigned kW = Traits::kChunk;
    constexpr uint64_t kWMask = (uint64_t{1} << kW) - 1;
    uint32_t *tags = g.dmc_tags.data();
    const unsigned n = static_cast<unsigned>(ctx.n);
    uint32_t misses = 0;
    for (unsigned c0 = 0; c0 < n; c0 += kW) {
        const uint64_t active = (ctx.access_mask >> c0) & kWMask;
        if (active == 0)
            continue;
        uint64_t pred =
            Traits::gatherCompare(tags, idx, tag, c0, active);
        const uint64_t stores = (ctx.store_mask >> c0) & kWMask;
        uint64_t remaining = active;
        while (remaining != 0) {
            const uint64_t miss = remaining & ~pred;
            const uint64_t seg =
                miss != 0 ? remaining & ((miss & -miss) - 1)
                          : remaining;
            if (seg != 0) {
                lane.stats.read_hits += static_cast<uint64_t>(
                    std::popcount(seg & ~stores));
                lane.stats.write_hits += static_cast<uint64_t>(
                    std::popcount(seg & stores));
                for (uint64_t b = seg & stores; b != 0; b &= b - 1)
                    tags[idx[c0 + std::countr_zero(b)]] |=
                        kLaneDirtyBit;
                remaining &= ~seg;
            }
            if (miss == 0)
                break;
            const unsigned k =
                static_cast<unsigned>(std::countr_zero(miss));
            const unsigned i = c0 + k;
            missPathT<Traits>(g, lane, ctx, i, ctx.addrs[i],
                              (stores >> k) & 1u, (freq >> i) & 1u);
            ++misses;
            remaining &= ~(uint64_t{1} << k);
            if (remaining != 0)
                pred = Traits::recompare(idx, tag, c0, remaining,
                                         idx[i],
                                         tags[idx[i]] &
                                             ~kLaneDirtyBit,
                                         pred);
        }
    }
    return misses;
}

/**
 * Phase-1 per-record walk for associative (or scalar-traits) lanes:
 * probe each record against the frozen tags, retire hits inline,
 * queue misses and later records of queued sets (tracked exactly
 * via the epoch column). Returns the entries appended.
 */
template <typename Traits>
inline uint32_t
queueLaneWalk(LaneGroup &g, Lane &lane, const BlockCtx &ctx,
              bool stamp, const uint32_t *idx, const uint32_t *tag,
              MissEntry *q)
{
    uint32_t *epochs = g.queue_epoch.data();
    const uint32_t ep = ++g.epoch_counter;
    uint32_t nq = 0;
    uint64_t bits = ctx.access_mask;
    while (bits) {
        const unsigned i =
            static_cast<unsigned>(std::countr_zero(bits));
        bits &= bits - 1;
        bool frozen_miss = false;
        if (epochs[idx[i]] != ep) {
            const int way = Traits::findWay(&g.dmc_tags[idx[i]],
                                            g.assoc, tag[i]);
            if (way >= 0) {
                const size_t line =
                    idx[i] + static_cast<size_t>(way);
                if (stamp)
                    g.dmc_stamps[line] = ++lane.dmc_clock;
                if ((ctx.store_mask >> i) & 1u) {
                    ++lane.stats.write_hits;
                    g.dmc_tags[line] |= kLaneDirtyBit;
                } else {
                    ++lane.stats.read_hits;
                }
                continue;
            }
            frozen_miss = true;
        }
        MissEntry &e = q[nq++];
        e.idx = idx[i];
        e.tag = tag[i];
        e.fvc_e = g.is_fvc ? static_cast<uint32_t>(
                                 fvcRowOf(lane, ctx.addrs[i]))
                           : 0;
        e.rec = static_cast<uint8_t>(i);
        e.flags = frozen_miss ? kMissFrozen : 0;
        epochs[idx[i]] = ep;
    }
    return nq;
}

/**
 * Phase 2: drain one lane's whole pending queue slice in record
 * order. The lane's whole slow path — re-probes, victim selection,
 * FVC fills, evictions — runs back to back here, so its DMC/FVC
 * columns stay register/L1-resident instead of being evicted
 * between misses by the other lanes' hit traffic. An epoch pass
 * over the queue_epoch column tracks the sets the drain itself
 * installed into: a kMissFrozen entry whose set is untouched skips
 * the re-probe (its phase-1 miss is still valid), everything else
 * re-probes. No lookahead prefetching of the next entry's state:
 * that was tried (tag word + FVC row + victim's frequent-map line,
 * one slot ahead) and measured slower — the address math outweighs
 * the hints, consistent with the inline engine's earlier
 * miss-path-prefetch negative result.
 */
template <typename Traits>
inline void
drainLane(LaneGroup &g, Lane &lane, const BlockCtx &ctx,
          uint64_t freq, bool stamp, const MissEntry *q,
          uint32_t nq)
{
    uint32_t *tags = g.dmc_tags.data();
    uint32_t *epochs = g.queue_epoch.data();
    const uint32_t ep = ++g.epoch_counter;
    for (uint32_t k = 0; k < nq; ++k) {
        const MissEntry &e = q[k];
        const bool is_store = (ctx.store_mask >> e.rec) & 1u;
        if (!(e.flags & kMissFrozen) || epochs[e.idx] == ep) {
            const int way =
                Traits::findWay(&tags[e.idx], g.assoc, e.tag);
            if (way >= 0) {
                const size_t line =
                    e.idx + static_cast<size_t>(way);
                if (stamp)
                    g.dmc_stamps[line] = ++lane.dmc_clock;
                if (is_store) {
                    ++lane.stats.write_hits;
                    tags[line] |= kLaneDirtyBit;
                } else {
                    ++lane.stats.read_hits;
                }
                continue;
            }
        }
        missPathT<Traits>(g, lane, ctx, e.rec, ctx.addrs[e.rec],
                          is_store, (freq >> e.rec) & 1u);
        epochs[e.idx] = ep;
    }
}

template <typename Traits>
inline void
runLaneBlockT(LaneGroup &g, const BlockCtx &ctx)
{
    const unsigned n_accesses =
        static_cast<unsigned>(std::popcount(ctx.access_mask));
    if (n_accesses == 0)
        return;
    const uint64_t freq = g.is_fvc ? ctx.freq_masks[g.enc_group] : 0;
    const bool dm = g.assoc == 1;
    // Direct-mapped stamps are dead stores (file header); only the
    // LRU hit path writes them at all.
    const bool stamp =
        g.replacement == cache::Replacement::LRU && !dm;

    const bool timing = laneKernelStatsEnabled();
    const uint64_t t0 = timing ? kernelTimestamp() : 0;

    alignas(64) uint32_t idx[kLaneBlockRecords];
    alignas(64) uint32_t tag[kLaneBlockRecords];

    MissEntry *queue = g.miss_queue.data();
    uint32_t *counts = g.miss_count.data();
    // Slow-path record tally: queue appends on the associative
    // walk, inline missPathT calls on the direct-mapped walk. The
    // DM walk interleaves its misses with the hit loop, so their
    // cycles stay in hit_cycles (inseparable without a timestamp
    // per miss); drain_cycles covers queue drains only, while
    // drain_records counts every slow-path record on either walk.
    uint32_t total_queued = 0;
    uint32_t inline_misses = 0;

    // Phase 1: hit loops over every lane. The direct-mapped walk
    // handles its misses inline (with prediction repair); the
    // associative/scalar walk queues them for phase 2.
    size_t lane_no = 0;
    for (Lane &lane : g.lanes) {
        Traits::precompute(g, lane, ctx.addrs, ctx.n, idx, tag);

        // Occupancy-countdown fast path: when no sample can fire
        // inside this block, retire all its accesses at once and
        // skip the per-access countdown.
        const bool careful =
            lane.countdown != 0 && lane.countdown <= n_accesses;
        if (careful) {
            runLaneCareful<Traits>(g, lane, ctx, freq, stamp, idx,
                                   tag);
            counts[lane_no++] = 0;
            continue;
        }
        if (lane.countdown != 0)
            lane.countdown -= n_accesses;

        if constexpr (Traits::kFastDm) {
            if (dm) {
                inline_misses += runLaneDm<Traits>(g, lane, ctx,
                                                   freq, idx, tag);
                counts[lane_no++] = 0;
                continue;
            }
        }
        MissEntry *q = queue + lane_no * kLaneBlockRecords;
        const uint32_t nq = queueLaneWalk<Traits>(g, lane, ctx,
                                                  stamp, idx, tag,
                                                  q);
        counts[lane_no++] = nq;
        total_queued += nq;
    }

    const uint64_t t1 = timing ? kernelTimestamp() : 0;

    // Phase 2: drain, grouped by lane, record order within a lane.
    if (total_queued != 0) {
        lane_no = 0;
        for (Lane &lane : g.lanes) {
            const uint32_t nq = counts[lane_no];
            if (nq != 0) {
                drainLane<Traits>(g, lane, ctx, freq, stamp,
                                  queue +
                                      lane_no * kLaneBlockRecords,
                                  nq);
            }
            ++lane_no;
        }
    }

    if (timing) {
        const uint64_t t2 = kernelTimestamp();
        LaneKernelStats &ks = laneKernelStats();
        const uint32_t slow = total_queued + inline_misses;
        ks.hit_cycles.fetch_add(t1 - t0,
                                std::memory_order_relaxed);
        ks.drain_cycles.fetch_add(t2 - t1,
                                  std::memory_order_relaxed);
        ks.hit_records.fetch_add(
            static_cast<uint64_t>(n_accesses) * g.lanes.size() -
                slow,
            std::memory_order_relaxed);
        ks.drain_records.fetch_add(slow,
                                   std::memory_order_relaxed);
        ks.blocks.fetch_add(1, std::memory_order_relaxed);
    }
}

} // namespace fvc::sim

#endif // FVC_SIM_LANE_KERNEL_IMPL_HH_
