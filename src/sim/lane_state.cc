#include "sim/lane_state.hh"

#include <bit>
#include <cstddef>
#include <cstring>

#include "util/bitops.hh"
#include "util/logging.hh"

namespace fvc::sim {

// The per-record protocol helpers (victim selection, FVC probe,
// fetch/install, the full miss path) live in lane_kernel_impl.hh,
// templated on the ISA traits so the drain's vertical primitives
// (findWay / minStampWay / fvcFindWay) stay in the same translation
// unit as the hit loop that feeds them.


void
FreqWordMap::init(const BatchEncoder *const *encoders,
                  size_t n_groups)
{
    fvc_assert(n_groups <= 8,
               "FreqWordMap packs one bit per encoding group into "
               "a byte");
    encoders_ = encoders;
    n_groups_ = n_groups;
}

FreqWordMap::FreqPage *
FreqWordMap::pageFor(uint32_t page_num)
{
    CacheSlot &slot = slots_[page_num % kCacheSlots];
    if (slot.cached && slot.num == page_num && slot.page != nullptr)
        return slot.page;
    auto it = pages_.find(page_num);
    if (it == pages_.end()) {
        auto page = std::make_unique<FreqPage>();
        std::memset(page->bits, 0, sizeof(page->bits));
        it = pages_.emplace(page_num, std::move(page)).first;
    }
    slot.cached = true;
    slot.num = page_num;
    slot.page = it->second.get();
    return slot.page;
}

void
FreqWordMap::materializeSegment(memmodel::FunctionalMemory &image,
                                uint32_t page_num, FreqPage &page,
                                uint32_t seg)
{
    // Encode the segment's current image words under every group.
    // The non-const read keeps the image's last-page cache hot, so
    // the kSegWords reads cost one hash lookup total.
    const Addr seg_base =
        static_cast<Addr>(page_num) * memmodel::kPageBytes +
        seg * kSegWords * trace::kWordBytes;
    Word buf[kSegWords];
    for (uint32_t k = 0; k < kSegWords; ++k)
        buf[k] = image.read(seg_base + k * trace::kWordBytes);
    uint8_t *bits = page.bits + seg * kSegWords;
    for (unsigned g = 0; g < n_groups_; ++g) {
        uint64_t m = encoders_[g]->frequentMask(buf, kSegWords);
        for (uint32_t k = 0; k < kSegWords; ++k)
            bits[k] |= static_cast<uint8_t>(((m >> k) & 1u) << g);
    }
    page.seg_valid |= uint64_t{1} << seg;
}

uint64_t
FreqWordMap::lineMask(memmodel::FunctionalMemory &image, Addr base,
                      uint32_t words, unsigned group)
{
    const uint32_t page_num = base / memmodel::kPageBytes;
    FreqPage *page = pageFor(page_num);
    // Lines are line-size aligned, so a line (at most 64 words)
    // never straddles a 64-word segment.
    const uint32_t seg =
        base % memmodel::kPageBytes /
        (kSegWords * trace::kWordBytes);
    if (!((page->seg_valid >> seg) & 1u))
        materializeSegment(image, page_num, *page, seg);
    // Lines are line-size aligned and pages are a power-of-two
    // multiple of any line size, so a line never crosses a page.
    const uint8_t *b =
        page->bits + (base % memmodel::kPageBytes) / trace::kWordBytes;
    uint64_t mask = 0;
    if constexpr (std::endian::native == std::endian::little) {
        for (uint32_t w0 = 0; w0 < words; w0 += 8) {
            // Gather bit `group` of eight per-word bytes into eight
            // adjacent mask bits: byte order matches bit
            // significance, and the multiply sums 64 partial shifts
            // that all land on distinct bit positions (w + k = 7
            // selects bit 56 + w), so no carries corrupt the top
            // byte.
            uint64_t x;
            std::memcpy(&x, b + w0, sizeof(x));
            x = (x >> group) & 0x0101010101010101ULL;
            mask |= (x * 0x0102040810204080ULL >> 56) << w0;
        }
        if (words < 64)
            mask &= (uint64_t{1} << words) - 1;
    } else {
        for (uint32_t w = 0; w < words; ++w)
            mask |= static_cast<uint64_t>((b[w] >> group) & 1u) << w;
    }
    return mask;
}

void
FreqWordMap::noteStore(Addr addr, uint8_t byte)
{
    const uint32_t num = addr / memmodel::kPageBytes;
    CacheSlot &slot = slots_[num % kCacheSlots];
    if (!(slot.cached && slot.num == num)) {
        auto it = pages_.find(num);
        slot.cached = true;
        slot.num = num;
        slot.page =
            it == pages_.end() ? nullptr : it->second.get();
    }
    if (slot.page == nullptr)
        return;
    const uint32_t w =
        (addr % memmodel::kPageBytes) / trace::kWordBytes;
    // Unmaterialized segments pick the value up from the advanced
    // image when first encoded.
    if ((slot.page->seg_valid >> (w / kSegWords)) & 1u)
        slot.page->bits[w] = byte;
}

void
LaneGroupSet::sampleOccupancy(LaneGroup &g, Lane &lane)
{
    uint64_t slots = 0, frequent = 0;
    const size_t end = lane.fvc_base + lane.fvc_entries;
    for (size_t e = lane.fvc_base; e < end; ++e) {
        if (g.fvc[e].tag == kLaneInvalidTag)
            continue;
        slots += lane.words_per_line;
        frequent +=
            static_cast<uint64_t>(std::popcount(g.fvc[e].present));
    }
    if (slots == 0)
        return; // no valid lines: no sample, as DmcFvcSystem
    lane.fvc_stats.occupancy_sum += static_cast<double>(frequent) /
                                    static_cast<double>(slots);
    ++lane.fvc_stats.occupancy_samples;
}

void
LaneGroupSet::addDmcLane(size_t cell, const cache::CacheConfig &config)
{
    fvc_assert(!finalized_, "lanes must be added before finalize()");
    config.validate();
    fvc_assert(config.write_policy == cache::WritePolicy::WriteBack,
               "tag-only model requires a write-back cache "
               "(write-through moves data on the hit path)");

    LaneGroup &g = groupFor(config.laneCompatKey(), false, config, 0);
    Lane lane;
    lane.cell = cell;
    lane.dmc_lines = config.lines();
    lane.dmc_set_mask = config.sets() - 1;
    lane.dmc_tag_shift = static_cast<uint8_t>(config.offsetBits() +
                                              config.indexBits());
    lane.line_bytes = config.line_bytes;
    g.lanes.push_back(lane);
}

void
LaneGroupSet::addFvcLane(size_t cell, const cache::CacheConfig &dmc,
                         const core::FvcConfig &fvc,
                         const core::DmcFvcPolicy &policy,
                         unsigned enc_group)
{
    fvc_assert(!finalized_, "lanes must be added before finalize()");
    dmc.validate();
    fvc.validate();
    fvc_assert(dmc.write_policy == cache::WritePolicy::WriteBack,
               "count-only model requires a write-back DMC");
    fvc_assert(dmc.line_bytes == fvc.line_bytes,
               "FVC line size must match the main cache");
    fvc_assert(fvc.wordsPerLine() <= 64,
               "present mask holds at most 64 words per line");

    // Bit 63 separates FVC groups from bare-DMC groups even if a
    // caller ever passes code_bits == 0.
    uint64_t key = dmc.laneCompatKey() |
                   (static_cast<uint64_t>(fvc.code_bits) << 32) |
                   (uint64_t{1} << 63);
    LaneGroup &g = groupFor(key, true, dmc, enc_group);
    fvc_assert(g.enc_group == enc_group,
               "one encoding group per code_bits");

    Lane lane;
    lane.cell = cell;
    lane.dmc_lines = dmc.lines();
    lane.dmc_set_mask = dmc.sets() - 1;
    lane.dmc_tag_shift =
        static_cast<uint8_t>(dmc.offsetBits() + dmc.indexBits());
    lane.line_bytes = dmc.line_bytes;
    lane.fvc_entries = fvc.entries;
    lane.fvc_assoc = fvc.assoc;
    lane.fvc_set_mask = fvc.sets() - 1;
    lane.fvc_offset_bits =
        static_cast<uint8_t>(util::floorLog2(fvc.line_bytes));
    lane.fvc_tag_shift = static_cast<uint8_t>(
        lane.fvc_offset_bits + util::floorLog2(fvc.sets()));
    lane.words_per_line = static_cast<uint8_t>(fvc.wordsPerLine());
    lane.skip_barren = policy.skip_barren_insertions;
    lane.write_alloc = policy.write_allocate_frequent;
    lane.sample_interval = policy.occupancy_sample_interval;
    lane.countdown = policy.occupancy_sample_interval;
    g.lanes.push_back(lane);
}

LaneGroup &
LaneGroupSet::groupFor(uint64_t key, bool is_fvc,
                       const cache::CacheConfig &dmc,
                       unsigned enc_group)
{
    for (auto &g : groups_) {
        if (g.key == key)
            return g;
    }
    LaneGroup g;
    g.key = key;
    g.is_fvc = is_fvc;
    g.enc_group = enc_group;
    g.assoc = dmc.assoc;
    g.line_bytes = dmc.line_bytes;
    g.offset_bits = static_cast<uint8_t>(dmc.offsetBits());
    g.log2_assoc = static_cast<uint8_t>(util::floorLog2(dmc.assoc));
    g.replacement = dmc.replacement;
    groups_.push_back(std::move(g));
    return groups_.back();
}

void
LaneGroupSet::finalize()
{
    fvc_assert(!finalized_, "finalize() runs once");
    finalized_ = true;
    for (LaneGroup &g : groups_) {
        size_t dmc_total = 0, fvc_total = 0;
        for (Lane &lane : g.lanes) {
            lane.dmc_base = static_cast<uint32_t>(dmc_total);
            dmc_total += lane.dmc_lines;
            lane.fvc_base = static_cast<uint32_t>(fvc_total);
            fvc_total += lane.fvc_entries;
        }
        g.dmc_tags.assign(dmc_total + kLaneTagPad, kLaneInvalidTag);
        g.dmc_stamps.assign(dmc_total, 0);
        g.fvc.assign(fvc_total, FvcEntry{});
        g.miss_queue.assign(g.lanes.size() * kLaneBlockRecords,
                            MissEntry{});
        g.miss_count.assign(g.lanes.size(), 0);
        // Epoch slot per tag-column slot (pad included so vector
        // epoch gathers at any set start stay in bounds); 0 never
        // equals a live epoch (the counter pre-increments).
        g.queue_epoch.assign(g.dmc_tags.size(), 0);
    }
}

void
LaneGroupSet::flush()
{
    // Per lane: DMC lines then FVC entries, index order — the order
    // DmcFvcSystem::flush uses (only counters care; keep exact).
    for (LaneGroup &g : groups_) {
        for (Lane &lane : g.lanes) {
            const size_t dend = lane.dmc_base + lane.dmc_lines;
            for (size_t i = lane.dmc_base; i < dend; ++i) {
                // Invalid lines are never dirty.
                if (g.dmc_tags[i] & kLaneDirtyBit) {
                    ++lane.stats.writebacks;
                    lane.stats.writeback_bytes += lane.line_bytes;
                }
                g.dmc_tags[i] = kLaneInvalidTag;
            }
            if (!g.is_fvc)
                continue;
            const size_t fend = lane.fvc_base + lane.fvc_entries;
            for (size_t e = lane.fvc_base; e < fend; ++e) {
                FvcEntry &entry = g.fvc[e];
                if (entry.tag != kLaneInvalidTag)
                    writebackFvcMeta(lane, entry.present,
                                     entry.dirty != 0);
                entry.tag = kLaneInvalidTag;
                entry.dirty = 0;
            }
        }
    }
}

} // namespace fvc::sim
