#include "oracle/oracle_dmc_fvc.hh"

#include <string>

#include "util/knobs.hh"
#include "util/logging.hh"
#include "util/strings.hh"

namespace fvc::oracle {

Mutation
mutationFromEnv()
{
    const std::string env = util::knobText("FVC_ORACLE_MUTATE");
    if (env.empty())
        return Mutation::None;
    if (env == "skip-read-merge")
        return Mutation::SkipReadMerge;
    if (env == "wrong-reserved-code")
        return Mutation::WrongReservedCode;
    if (env == "stale-victim-scan")
        return Mutation::StaleVictimScan;
    if (env == "skip-write-allocate")
        return Mutation::SkipWriteAllocate;
    if (env == "no-write-dirty")
        return Mutation::NoWriteDirty;
    fvc_fatal("unknown FVC_ORACLE_MUTATE value: ", env,
              " (want skip-read-merge, wrong-reserved-code, "
              "stale-victim-scan, skip-write-allocate, or "
              "no-write-dirty)");
}

const char *
mutationName(Mutation m)
{
    switch (m) {
      case Mutation::None: return "none";
      case Mutation::SkipReadMerge: return "skip-read-merge";
      case Mutation::WrongReservedCode: return "wrong-reserved-code";
      case Mutation::StaleVictimScan: return "stale-victim-scan";
      case Mutation::SkipWriteAllocate: return "skip-write-allocate";
      case Mutation::NoWriteDirty: return "no-write-dirty";
    }
    fvc_panic("unreachable mutation");
}

OracleDmcFvc::OracleDmcFvc(const cache::CacheConfig &dmc,
                           const core::FvcConfig &fvc,
                           const std::vector<Word> &frequent_values,
                           core::DmcFvcPolicy policy,
                           Mutation mutation)
    : dmc_config_(dmc), fvc_config_(fvc), policy_(policy),
      mutation_(mutation), dmc_rng_(12345)
{
    dmc_config_.validate();
    fvc_config_.validate();
    fvc_assert(dmc_config_.line_bytes == fvc_config_.line_bytes,
               "oracle FVC line size must match the main cache");

    // The paper's code table: with b code bits, the 2^b - 1 most
    // frequent values get codes 0.., and the all-ones code is
    // reserved for "non-frequent value here". Duplicates in the
    // profiled list are skipped, exactly like the production
    // FrequentValueEncoding.
    non_frequent_code_ = static_cast<uint8_t>(
        (1u << fvc_config_.code_bits) - 1);
    const uint32_t capacity = non_frequent_code_;
    for (Word v : frequent_values) {
        if (values_.size() >= capacity)
            break;
        bool seen = false;
        for (Word have : values_) {
            if (have == v) {
                seen = true;
                break;
            }
        }
        if (!seen)
            values_.push_back(v);
    }
    fvc_assert(!values_.empty(),
               "oracle encoding requires at least one frequent value");
    // Planted bug: the encoder's reserved-code boundary is off by
    // one, so the last encodable value loses its code.
    if (mutation_ == Mutation::WrongReservedCode &&
        values_.size() > 1) {
        values_.pop_back();
    }

    dmc_lines_.resize(dmc_config_.lines());
    for (auto &line : dmc_lines_)
        line.data.assign(dmc_config_.wordsPerLine(), 0);
    fvc_entries_.resize(fvc_config_.entries);
    for (auto &entry : fvc_entries_)
        entry.codes.assign(fvc_config_.wordsPerLine(),
                           non_frequent_code_);

    sample_countdown_ = policy_.occupancy_sample_interval;
}

// --- naive encoding ------------------------------------------------

uint8_t
OracleDmcFvc::encode(Word value) const
{
    // Linear scan in code order: the literal reading of "look the
    // value up in the table of frequent values".
    for (size_t i = 0; i < values_.size(); ++i) {
        if (values_[i] == value)
            return static_cast<uint8_t>(i);
    }
    return non_frequent_code_;
}

std::optional<Word>
OracleDmcFvc::decode(uint8_t code) const
{
    if (code == non_frequent_code_)
        return std::nullopt;
    fvc_assert(code < values_.size(),
               "oracle decode of unassigned code ", unsigned(code));
    return values_[code];
}

bool
OracleDmcFvc::isFrequent(Word value) const
{
    return encode(value) != non_frequent_code_;
}

// --- memory --------------------------------------------------------

Word
OracleDmcFvc::memRead(Addr addr) const
{
    auto it = memory_.find(addr);
    return it == memory_.end() ? 0 : it->second;
}

void
OracleDmcFvc::memWrite(Addr addr, Word value)
{
    memory_[addr] = value;
}

void
OracleDmcFvc::installWord(Addr addr, Word value)
{
    memWrite(addr, value);
}

// --- DMC geometry --------------------------------------------------

uint32_t
OracleDmcFvc::dmcSet(Addr addr) const
{
    return (addr / dmc_config_.line_bytes) % dmc_config_.sets();
}

uint64_t
OracleDmcFvc::dmcTag(Addr addr) const
{
    return addr / dmc_config_.line_bytes / dmc_config_.sets();
}

Addr
OracleDmcFvc::dmcBase(const DmcLine &line, uint32_t set) const
{
    return static_cast<Addr>(
        (line.tag * dmc_config_.sets() + set) *
        dmc_config_.line_bytes);
}

OracleDmcFvc::DmcLine *
OracleDmcFvc::dmcProbe(Addr addr)
{
    uint32_t set = dmcSet(addr);
    uint64_t tag = dmcTag(addr);
    for (uint32_t way = 0; way < dmc_config_.assoc; ++way) {
        DmcLine &line =
            dmc_lines_[static_cast<size_t>(set) * dmc_config_.assoc +
                       way];
        if (line.valid && line.tag == tag)
            return &line;
    }
    return nullptr;
}

const OracleDmcFvc::DmcLine *
OracleDmcFvc::dmcProbe(Addr addr) const
{
    return const_cast<OracleDmcFvc *>(this)->dmcProbe(addr);
}

uint32_t
OracleDmcFvc::dmcVictimWay(uint32_t set)
{
    for (uint32_t way = 0; way < dmc_config_.assoc; ++way) {
        if (!dmc_lines_[static_cast<size_t>(set) *
                            dmc_config_.assoc +
                        way]
                 .valid)
            return way;
    }
    if (dmc_config_.replacement == cache::Replacement::Random)
        return static_cast<uint32_t>(
            dmc_rng_.below(dmc_config_.assoc));
    uint32_t best = 0;
    for (uint32_t way = 1; way < dmc_config_.assoc; ++way) {
        const auto &cand =
            dmc_lines_[static_cast<size_t>(set) * dmc_config_.assoc +
                       way];
        const auto &incumbent =
            dmc_lines_[static_cast<size_t>(set) * dmc_config_.assoc +
                       best];
        if (cand.stamp < incumbent.stamp)
            best = way;
    }
    return best;
}

// --- FVC geometry --------------------------------------------------

uint32_t
OracleDmcFvc::fvcSet(Addr addr) const
{
    return (addr / fvc_config_.line_bytes) % fvc_config_.sets();
}

uint64_t
OracleDmcFvc::fvcTag(Addr addr) const
{
    return addr / fvc_config_.line_bytes / fvc_config_.sets();
}

Addr
OracleDmcFvc::fvcBase(const FvcEntry &entry, uint32_t set) const
{
    return static_cast<Addr>(
        (entry.tag * fvc_config_.sets() + set) *
        fvc_config_.line_bytes);
}

uint32_t
OracleDmcFvc::fvcWordOffset(Addr addr) const
{
    return (addr % fvc_config_.line_bytes) / trace::kWordBytes;
}

OracleDmcFvc::FvcEntry *
OracleDmcFvc::fvcFind(Addr addr)
{
    uint32_t set = fvcSet(addr);
    uint64_t tag = fvcTag(addr);
    for (uint32_t way = 0; way < fvc_config_.assoc; ++way) {
        FvcEntry &entry =
            fvc_entries_[static_cast<size_t>(set) *
                             fvc_config_.assoc +
                         way];
        if (entry.valid && entry.tag == tag)
            return &entry;
    }
    return nullptr;
}

const OracleDmcFvc::FvcEntry *
OracleDmcFvc::fvcFind(Addr addr) const
{
    return const_cast<OracleDmcFvc *>(this)->fvcFind(addr);
}

OracleDmcFvc::FvcEntry &
OracleDmcFvc::fvcVictim(uint32_t set)
{
    FvcEntry *best = nullptr;
    for (uint32_t way = 0; way < fvc_config_.assoc; ++way) {
        FvcEntry &entry =
            fvc_entries_[static_cast<size_t>(set) *
                             fvc_config_.assoc +
                         way];
        if (!entry.valid)
            return entry;
        if (!best || entry.stamp < best->stamp)
            best = &entry;
    }
    return *best;
}

// --- protocol steps ------------------------------------------------

void
OracleDmcFvc::writebackFvcEntry(const FvcEntry &entry, Addr base)
{
    if (!entry.dirty)
        return;
    ++fvc_stats_.fvc_writebacks;
    uint32_t written = 0;
    for (uint32_t w = 0; w < entry.codes.size(); ++w) {
        auto value = decode(entry.codes[w]);
        if (!value)
            continue; // non-frequent: memory already current
        memWrite(base + w * trace::kWordBytes, *value);
        ++written;
    }
    ++stats_.writebacks;
    stats_.writeback_bytes += written * trace::kWordBytes;
}

void
OracleDmcFvc::writebackDmcLine(const DmcLine &line, Addr base)
{
    if (!line.dirty)
        return;
    ++stats_.writebacks;
    stats_.writeback_bytes += dmc_config_.line_bytes;
    for (uint32_t w = 0; w < line.data.size(); ++w)
        memWrite(base + w * trace::kWordBytes, line.data[w]);
}

void
OracleDmcFvc::handleDmcEviction(const DmcLine &line, Addr base)
{
    // Planted bug: the frequent-content scan samples memory before
    // the victim's writeback lands, observing stale values.
    uint32_t stale_frequent = 0;
    if (mutation_ == Mutation::StaleVictimScan) {
        for (uint32_t w = 0; w < line.data.size(); ++w) {
            if (isFrequent(memRead(base + w * trace::kWordBytes)))
                ++stale_frequent;
        }
    }

    // Rule E: write the victim back, then remember its frequent
    // content in the FVC (unless it has none).
    writebackDmcLine(line, base);

    uint32_t frequent = 0;
    if (mutation_ == Mutation::StaleVictimScan) {
        frequent = stale_frequent;
    } else {
        for (Word v : line.data) {
            if (isFrequent(v))
                ++frequent;
        }
    }
    if (policy_.skip_barren_insertions && frequent == 0) {
        ++fvc_stats_.insertions_skipped;
        return;
    }
    ++fvc_stats_.insertions;

    uint32_t set = fvcSet(base);
    FvcEntry &slot = fvcVictim(set);
    if (slot.valid) {
        FvcEntry displaced = slot;
        Addr displaced_base = fvcBase(slot, set);
        slot.valid = false;
        writebackFvcEntry(displaced, displaced_base);
    }
    slot.tag = fvcTag(base);
    slot.valid = true;
    slot.dirty = false; // clean: memory was just made current
    slot.stamp = ++fvc_clock_;
    for (uint32_t w = 0; w < slot.codes.size(); ++w)
        slot.codes[w] = encode(line.data[w]);
}

void
OracleDmcFvc::fetchInstall(Addr addr)
{
    Addr base = addr - addr % dmc_config_.line_bytes;
    std::vector<Word> data(dmc_config_.wordsPerLine());
    for (uint32_t w = 0; w < data.size(); ++w)
        data[w] = memRead(base + w * trace::kWordBytes);

    // The FVC may hold newer values for this line: overlay them and
    // retire the entry (exclusivity). The line enters the DMC dirty
    // iff the overlay carried values memory does not yet have.
    bool dirty = false;
    if (FvcEntry *entry = fvcFind(base)) {
        if (mutation_ != Mutation::SkipReadMerge) {
            for (uint32_t w = 0; w < data.size(); ++w) {
                auto value = decode(entry->codes[w]);
                if (value) {
                    data[w] = *value;
                    if (entry->dirty)
                        dirty = true;
                }
            }
        }
        entry->valid = false;
        entry->dirty = false;
    }

    ++stats_.fills;
    stats_.fetch_bytes += dmc_config_.line_bytes;

    uint32_t set = dmcSet(addr);
    uint32_t way = dmcVictimWay(set);
    DmcLine &slot =
        dmc_lines_[static_cast<size_t>(set) * dmc_config_.assoc +
                   way];
    std::optional<DmcLine> victim;
    Addr victim_base = 0;
    if (slot.valid) {
        victim = slot;
        victim_base = dmcBase(slot, set);
    }
    slot.tag = dmcTag(addr);
    slot.valid = true;
    slot.dirty = dirty;
    slot.stamp = ++dmc_clock_;
    slot.data = std::move(data);
    if (victim)
        handleDmcEviction(*victim, victim_base);
}

void
OracleDmcFvc::access(const trace::MemRecord &rec)
{
    fvc_assert(rec.isAccess(), "oracle access requires load/store");
    const Addr addr = rec.addr;
    ++access_count_;
    if (sample_countdown_ && --sample_countdown_ == 0) {
        sampleOccupancy();
        sample_countdown_ = policy_.occupancy_sample_interval;
    }

    // Both structures are probed; at most one can hit.
    if (DmcLine *line = dmcProbe(addr)) {
        if (dmc_config_.replacement == cache::Replacement::LRU)
            line->stamp = ++dmc_clock_;
        uint32_t off =
            (addr % dmc_config_.line_bytes) / trace::kWordBytes;
        if (rec.isLoad()) {
            ++stats_.read_hits;
        } else {
            ++stats_.write_hits;
            line->data[off] = rec.value;
            line->dirty = true;
        }
        return;
    }

    if (rec.isLoad()) {
        if (FvcEntry *entry = fvcFind(addr)) {
            entry->stamp = ++fvc_clock_;
            auto value = decode(entry->codes[fvcWordOffset(addr)]);
            if (value) {
                // FVC read hit: the code decodes to a value.
                ++stats_.read_hits;
                ++fvc_stats_.fvc_read_hits;
                return;
            }
            // Tag match, non-frequent word: a (partial) miss.
            ++stats_.read_misses;
            ++fvc_stats_.partial_misses;
            fetchInstall(addr);
            return;
        }
    } else {
        if (FvcEntry *entry = fvcFind(addr)) {
            uint8_t code = encode(rec.value);
            if (code != non_frequent_code_) {
                entry->codes[fvcWordOffset(addr)] = code;
                // Planted bug: the write hit forgets to set dirty.
                if (mutation_ != Mutation::NoWriteDirty)
                    entry->dirty = true;
                entry->stamp = ++fvc_clock_;
                ++stats_.write_hits;
                ++fvc_stats_.fvc_write_hits;
                return;
            }
            // Tag match, non-frequent value: miss (no LRU touch —
            // the production probeWrite bails before stamping).
            ++stats_.write_misses;
            ++fvc_stats_.partial_misses;
            fetchInstall(addr);
            DmcLine *line = dmcProbe(addr);
            uint32_t off =
                (addr % dmc_config_.line_bytes) / trace::kWordBytes;
            line->data[off] = rec.value;
            line->dirty = true;
            return;
        }
    }

    // Miss in both structures.
    if (rec.isLoad()) {
        ++stats_.read_misses;
        fetchInstall(addr);
        return;
    }

    ++stats_.write_misses;
    if (policy_.write_allocate_frequent && isFrequent(rec.value) &&
        mutation_ != Mutation::SkipWriteAllocate) {
        // Frequent-value write allocation: no memory fetch.
        ++fvc_stats_.write_allocations;
        uint32_t set = fvcSet(addr);
        FvcEntry &slot = fvcVictim(set);
        if (slot.valid) {
            FvcEntry displaced = slot;
            Addr displaced_base = fvcBase(slot, set);
            slot.valid = false;
            writebackFvcEntry(displaced, displaced_base);
        }
        slot.tag = fvcTag(addr);
        slot.valid = true;
        slot.dirty = true;
        slot.stamp = ++fvc_clock_;
        for (auto &code : slot.codes)
            code = non_frequent_code_;
        slot.codes[fvcWordOffset(addr)] = encode(rec.value);
        return;
    }
    fetchInstall(addr);
    DmcLine *line = dmcProbe(addr);
    uint32_t off = (addr % dmc_config_.line_bytes) / trace::kWordBytes;
    line->data[off] = rec.value;
    line->dirty = true;
}

void
OracleDmcFvc::flush()
{
    for (uint32_t set = 0; set < dmc_config_.sets(); ++set) {
        for (uint32_t way = 0; way < dmc_config_.assoc; ++way) {
            DmcLine &line =
                dmc_lines_[static_cast<size_t>(set) *
                               dmc_config_.assoc +
                           way];
            if (!line.valid)
                continue;
            writebackDmcLine(line, dmcBase(line, set));
            line.valid = false;
            line.dirty = false;
        }
    }
    for (uint32_t set = 0; set < fvc_config_.sets(); ++set) {
        for (uint32_t way = 0; way < fvc_config_.assoc; ++way) {
            FvcEntry &entry =
                fvc_entries_[static_cast<size_t>(set) *
                                 fvc_config_.assoc +
                             way];
            if (!entry.valid)
                continue;
            writebackFvcEntry(entry, fvcBase(entry, set));
            entry.valid = false;
            entry.dirty = false;
        }
    }
}

void
OracleDmcFvc::sampleOccupancy()
{
    uint64_t slots = 0, frequent = 0;
    uint32_t valid = 0;
    for (const auto &entry : fvc_entries_) {
        if (!entry.valid)
            continue;
        ++valid;
        for (uint8_t code : entry.codes) {
            ++slots;
            if (code != non_frequent_code_)
                ++frequent;
        }
    }
    if (valid == 0)
        return;
    fvc_stats_.occupancy_sum +=
        static_cast<double>(frequent) / static_cast<double>(slots);
    ++fvc_stats_.occupancy_samples;
}

// --- state dumps for divergence reports ---------------------------

std::vector<std::vector<std::string>>
OracleDmcFvc::dmcSetState(Addr addr) const
{
    std::vector<std::vector<std::string>> rows;
    uint32_t set = dmcSet(addr);
    for (uint32_t way = 0; way < dmc_config_.assoc; ++way) {
        const DmcLine &line =
            dmc_lines_[static_cast<size_t>(set) * dmc_config_.assoc +
                       way];
        std::string words;
        if (line.valid) {
            for (uint32_t w = 0; w < line.data.size(); ++w) {
                if (w)
                    words += ' ';
                words += util::hex32(line.data[w]);
            }
        }
        rows.push_back({std::to_string(way),
                        line.valid ? "1" : "0",
                        line.dirty ? "1" : "0",
                        line.valid ? util::hex32(static_cast<uint32_t>(
                                         dmcBase(line, set)))
                                   : "-",
                        std::to_string(line.stamp), words});
    }
    return rows;
}

std::vector<std::vector<std::string>>
OracleDmcFvc::fvcSetState(Addr addr) const
{
    std::vector<std::vector<std::string>> rows;
    uint32_t set = fvcSet(addr);
    for (uint32_t way = 0; way < fvc_config_.assoc; ++way) {
        const FvcEntry &entry =
            fvc_entries_[static_cast<size_t>(set) *
                             fvc_config_.assoc +
                         way];
        std::string codes;
        if (entry.valid) {
            for (uint32_t w = 0; w < entry.codes.size(); ++w) {
                if (w)
                    codes += ' ';
                codes += entry.codes[w] == non_frequent_code_
                             ? std::string("NF")
                             : std::to_string(entry.codes[w]);
            }
        }
        rows.push_back({std::to_string(way),
                        entry.valid ? "1" : "0",
                        entry.dirty ? "1" : "0",
                        entry.valid ? util::hex32(static_cast<uint32_t>(
                                          fvcBase(entry, set)))
                                    : "-",
                        std::to_string(entry.stamp), codes});
    }
    return rows;
}

} // namespace fvc::oracle
