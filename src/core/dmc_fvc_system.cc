#include "core/dmc_fvc_system.hh"

#include "util/logging.hh"

namespace fvc::core {

DmcFvcSystem::DmcFvcSystem(const cache::CacheConfig &dmc_config,
                           const FvcConfig &fvc_config,
                           FrequentValueEncoding encoding,
                           DmcFvcPolicy policy)
    : dmc_(dmc_config), fvc_(fvc_config, std::move(encoding)),
      policy_(policy),
      sample_countdown_(policy.occupancy_sample_interval),
      fetched_(dmc_config.wordsPerLine()),
      evicted_codes_(dmc_config.wordsPerLine())
{
    fvc_assert(dmc_config.line_bytes == fvc_config.line_bytes,
               "FVC line size must match the main cache (the "
               "encoded data field has one subfield per DMC word)");
}

void
DmcFvcSystem::writebackFvcEntry(const FvcEvicted &entry)
{
    if (!entry.dirty)
        return;
    ++fvc_stats_.fvc_writebacks;
    uint32_t written = 0;
    for (uint32_t w = 0; w < entry.codes.size(); ++w) {
        auto value = fvc_.encoding().decode(entry.codes[w]);
        if (!value)
            continue; // non-frequent: memory already current
        memory_.write(entry.base + w * trace::kWordBytes, *value);
        ++written;
    }
    ++stats_.writebacks;
    stats_.writeback_bytes += written * trace::kWordBytes;
}

void
DmcFvcSystem::writebackDmcLine(const cache::EvictedLine &line)
{
    if (!line.dirty)
        return;
    ++stats_.writebacks;
    stats_.writeback_bytes += dmc_.config().line_bytes;
    for (uint32_t w = 0; w < line.data.size(); ++w) {
        memory_.write(line.base + w * trace::kWordBytes,
                      line.data[w]);
    }
}

void
DmcFvcSystem::handleDmcEviction(const cache::EvictedLine &line)
{
    // Rule E: the victim is written back to memory AND its frequent
    // content is remembered in the FVC. The line is encoded once.
    writebackDmcLine(line);
    uint32_t frequent =
        fvc_.encoding().encodeLine(line.data, evicted_codes_);
    if (policy_.skip_barren_insertions && frequent == 0) {
        ++fvc_stats_.insertions_skipped;
        return;
    }
    ++fvc_stats_.insertions;
    // Clean insertion: memory was just made current.
    auto displaced =
        fvc_.insertLine(line.base, evicted_codes_, false);
    if (displaced)
        writebackFvcEntry(*displaced);
}

void
DmcFvcSystem::fetchInstall(Addr addr)
{
    Addr base = dmc_.config().lineBase(addr);
    for (uint32_t w = 0; w < fetched_.size(); ++w)
        fetched_[w] = memory_.read(base + w * trace::kWordBytes);

    // If the FVC holds this line, its frequent-coded words are the
    // latest values: overlay them, then retire the FVC entry
    // (exclusivity). The line enters the DMC dirty if the overlay
    // changed anything memory does not yet have.
    bool dirty = false;
    if (auto entry = fvc_.invalidate(base)) {
        for (uint32_t w = 0; w < fetched_.size(); ++w) {
            if (auto value = fvc_.encoding().decode(entry->codes[w])) {
                fetched_[w] = *value;
                if (entry->dirty)
                    dirty = true;
            }
        }
    }

    ++stats_.fills;
    stats_.fetch_bytes += dmc_.config().line_bytes;
    auto victim = dmc_.fill(addr, fetched_, dirty);
    if (victim)
        handleDmcEviction(*victim);
}

cache::AccessResult
DmcFvcSystem::access(const trace::MemRecord &rec)
{
    fvc_assert(rec.isAccess(), "access requires load/store");
    cache::AccessResult result;
    const Addr addr = rec.addr;
    ++access_count_;
    if (sample_countdown_ && --sample_countdown_ == 0) {
        sampleOccupancy();
        sample_countdown_ = policy_.occupancy_sample_interval;
    }

#ifndef NDEBUG
    fvc_assert(exclusive(addr),
               "DMC/FVC exclusivity violated before access");
#endif

    // Both structures are probed in parallel; at most one can hit.
    if (cache::CacheLine *line = dmc_.probeTouch(addr)) {
        result.where = cache::HitWhere::MainCache;
        Word &word = dmc_.words(*line)[dmc_.config().wordOffset(addr)];
        if (rec.isLoad()) {
            ++stats_.read_hits;
            result.loaded = word;
        } else {
            ++stats_.write_hits;
            word = rec.value;
            line->dirty = true;
        }
        return result;
    }

    // One fused probe instead of tagMatch() + read/writeWord().
    if (rec.isLoad()) {
        Word value = 0;
        switch (fvc_.probeRead(addr, value)) {
          case core::FrequentValueCache::ProbeOutcome::Hit:
            // FVC read hit: the word's code decodes to a value.
            ++stats_.read_hits;
            ++fvc_stats_.fvc_read_hits;
            result.where = cache::HitWhere::AuxCache;
            result.loaded = value;
            return result;
          case core::FrequentValueCache::ProbeOutcome::NonFrequent:
            // Tag match, non-frequent word: a miss. Fetch the line,
            // merge the FVC's newer values, move it to the DMC.
            ++stats_.read_misses;
            ++fvc_stats_.partial_misses;
            fetchInstall(addr);
            result.loaded = dmc_.readWord(addr);
            return result;
          case core::FrequentValueCache::ProbeOutcome::NoTag:
            break;
        }
    } else {
        switch (fvc_.probeWrite(addr, rec.value)) {
          case core::FrequentValueCache::ProbeOutcome::Hit:
            ++stats_.write_hits;
            ++fvc_stats_.fvc_write_hits;
            result.where = cache::HitWhere::AuxCache;
            return result;
          case core::FrequentValueCache::ProbeOutcome::NonFrequent:
            // Tag match but the value is non-frequent: miss; merge
            // the line into the DMC and perform the write there.
            ++stats_.write_misses;
            ++fvc_stats_.partial_misses;
            fetchInstall(addr);
            dmc_.writeWord(addr, rec.value);
            return result;
          case core::FrequentValueCache::ProbeOutcome::NoTag:
            break;
        }
    }

    // Miss in both structures.
    if (rec.isLoad()) {
        ++stats_.read_misses;
        fetchInstall(addr);
        result.loaded = dmc_.readWord(addr);
        return result;
    }

    ++stats_.write_misses;
    if (policy_.write_allocate_frequent &&
        fvc_.encoding().isFrequent(rec.value)) {
        // Frequent-value write allocation: no memory fetch. Other
        // words are marked non-frequent; touching them later causes
        // the (delayed) miss.
        ++fvc_stats_.write_allocations;
        auto displaced = fvc_.writeAllocate(addr, rec.value);
        if (displaced)
            writebackFvcEntry(*displaced);
        return result;
    }
    fetchInstall(addr);
    dmc_.writeWord(addr, rec.value);
    return result;
}

void
DmcFvcSystem::flush()
{
    for (const auto &line : dmc_.flush())
        writebackDmcLine(line);
    for (const auto &entry : fvc_.flush())
        writebackFvcEntry(entry);
}

const cache::CacheStats &
DmcFvcSystem::stats() const
{
    return stats_;
}

std::string
DmcFvcSystem::describe() const
{
    return "DMC " + dmc_.config().describe() + " + " +
           fvc_.config().describe();
}

void
DmcFvcSystem::retrain(const std::vector<Word> &values)
{
    for (const auto &entry : fvc_.flush())
        writebackFvcEntry(entry);
    fvc_.rekey(FrequentValueEncoding(
        values, fvc_.config().code_bits));
}

bool
DmcFvcSystem::exclusive(Addr addr) const
{
    return !(dmc_.probe(addr) != nullptr && fvc_.tagMatch(addr));
}

void
DmcFvcSystem::sampleOccupancy()
{
    if (fvc_.validLines() == 0)
        return;
    fvc_stats_.occupancy_sum += fvc_.frequentCodeFraction();
    ++fvc_stats_.occupancy_samples;
}

} // namespace fvc::core
