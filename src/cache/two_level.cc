#include "cache/two_level.hh"

#include <algorithm>

#include "util/logging.hh"

namespace fvc::cache {

TwoLevelSystem::TwoLevelSystem(const CacheConfig &l1_config,
                               const CacheConfig &l2_config)
    : l1_(l1_config), l2_(l2_config),
      fetched_(l2_config.wordsPerLine())
{
    fvc_assert(l1_config.line_bytes == l2_config.line_bytes,
               "TwoLevelSystem requires matching line sizes");
    fvc_assert(l2_config.size_bytes >= l1_config.size_bytes,
               "L2 should not be smaller than L1");
}

void
TwoLevelSystem::handleL2Eviction(const EvictedLine &line)
{
    if (!line.dirty)
        return;
    ++stats_.writebacks;
    stats_.writeback_bytes += l2_.config().line_bytes;
    for (uint32_t w = 0; w < line.data.size(); ++w) {
        memory_.write(line.base + w * trace::kWordBytes,
                      line.data[w]);
    }
}

void
TwoLevelSystem::handleL1Eviction(const EvictedLine &line)
{
    if (!line.dirty)
        return; // L2 (or memory) already has a current copy
    if (CacheLine *resident = l2_.probeTouch(line.base)) {
        std::copy(line.data.begin(), line.data.end(),
                  l2_.words(*resident).begin());
        resident->dirty = true;
        return;
    }
    // Allocate the victim in L2 (victim caching of dirty lines).
    auto displaced = l2_.fill(line.base, line.data, true);
    if (displaced)
        handleL2Eviction(*displaced);
}

std::span<const Word>
TwoLevelSystem::lineViaL2(Addr addr, bool count_l2)
{
    Addr base = l2_.config().lineBase(addr);
    if (CacheLine *line = l2_.probeTouch(addr)) {
        if (count_l2)
            ++l2_stats_.read_hits;
        return l2_.words(*line);
    }
    if (count_l2)
        ++l2_stats_.read_misses;
    for (uint32_t w = 0; w < fetched_.size(); ++w)
        fetched_[w] = memory_.read(base + w * trace::kWordBytes);
    ++stats_.fills;
    stats_.fetch_bytes += l2_.config().line_bytes;
    auto displaced = l2_.fill(addr, fetched_, false);
    if (displaced)
        handleL2Eviction(*displaced);
    return fetched_;
}

AccessResult
TwoLevelSystem::access(const trace::MemRecord &rec)
{
    fvc_assert(rec.isAccess(), "access requires load/store");
    AccessResult result;
    Addr addr = rec.addr;
    uint32_t off = l1_.config().wordOffset(addr);

    if (CacheLine *line = l1_.probeTouch(addr)) {
        result.where = HitWhere::MainCache;
        if (rec.isLoad()) {
            ++stats_.read_hits;
            result.loaded = l1_.words(*line)[off];
        } else {
            ++stats_.write_hits;
            l1_.words(*line)[off] = rec.value;
            line->dirty = true;
        }
        return result;
    }

    if (rec.isLoad())
        ++stats_.read_misses;
    else
        ++stats_.write_misses;

    auto victim = l1_.fill(addr, lineViaL2(addr, true), false);
    if (victim)
        handleL1Eviction(*victim);

    CacheLine *line = l1_.probe(addr);
    if (rec.isLoad()) {
        result.loaded = l1_.words(*line)[off];
    } else {
        l1_.words(*line)[off] = rec.value;
        line->dirty = true;
    }
    return result;
}

void
TwoLevelSystem::flush()
{
    for (const auto &line : l1_.flush())
        handleL1Eviction(line);
    for (const auto &line : l2_.flush())
        handleL2Eviction(line);
}

std::string
TwoLevelSystem::describe() const
{
    return "L1 " + l1_.config().describe() + " + L2 " +
           l2_.config().describe();
}

} // namespace fvc::cache
