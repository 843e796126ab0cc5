#include "resultcache/result_store.hh"

#include <algorithm>
#include <numeric>
#include <unordered_map>

#include "util/framed.hh"

namespace fvc::resultcache {

namespace {

ResultRecord
decodeResultPayload(const uint8_t *p)
{
    ResultRecord r;
    r.fingerprint = util::get64(p);
    r.cost = util::get64(p + 8);
    fabric::decodeCellStats(p + 16, r.stats);
    return r;
}

} // namespace

std::vector<uint8_t>
encodeResultPayload(const ResultRecord &record)
{
    std::vector<uint8_t> out;
    out.reserve(kResultPayloadBytes);
    util::put64(out, record.fingerprint);
    util::put64(out, record.cost);
    fabric::encodeCellStats(out, record.stats);
    fvc_assert(out.size() == kResultPayloadBytes,
               "result record payload size drifted");
    return out;
}

util::Expected<ResultFileContents>
readResultFile(const std::string &path)
{
    auto framed = util::readFramedFile(path, kResultMagic);
    if (!framed.ok())
        return framed.error();

    ResultFileContents contents;
    contents.rejected_frames = framed.value().rejected_frames;
    contents.truncated_tail = framed.value().truncated_tail;
    for (const auto &frame : framed.value().frames) {
        if (frame.kind == kKindResult &&
            frame.payload.size() == kResultPayloadBytes) {
            contents.records.push_back(
                decodeResultPayload(frame.payload.data()));
        } else {
            ++contents.rejected_frames;
        }
    }
    return contents;
}

std::optional<util::Error>
publishResults(const std::string &path,
               const std::vector<ResultRecord> &records,
               uint64_t cap_bytes)
{
    // Existing records first: first-wins per fingerprint keeps the
    // earliest published record stable across publishes.
    std::vector<ResultRecord> merged;
    std::unordered_map<uint64_t, size_t> seen;
    auto add = [&](const ResultRecord &record) {
        if (seen.emplace(record.fingerprint, merged.size()).second)
            merged.push_back(record);
    };
    auto existing = readResultFile(path);
    if (existing.ok()) {
        for (const auto &record : existing.value().records)
            add(record);
    }
    for (const auto &record : records)
        add(record);

    // Admission under the size cap: every record costs the same
    // bytes, so keeping the highest-cost records maximizes the
    // simulation time one store byte protects (Flashield's
    // protect-the-backing-tier rule). Deterministic: cost
    // descending, fingerprint ascending on ties.
    const uint64_t capacity = cap_bytes / kResultRecordBytes;
    if (merged.size() > capacity) {
        std::vector<size_t> order(merged.size());
        std::iota(order.begin(), order.end(), size_t{0});
        std::sort(order.begin(), order.end(),
                  [&merged](size_t a, size_t b) {
                      if (merged[a].cost != merged[b].cost)
                          return merged[a].cost > merged[b].cost;
                      return merged[a].fingerprint <
                             merged[b].fingerprint;
                  });
        order.resize(static_cast<size_t>(capacity));
        std::vector<bool> keep(merged.size(), false);
        for (size_t i : order)
            keep[i] = true;
        std::vector<ResultRecord> kept;
        kept.reserve(order.size());
        for (size_t i = 0; i < merged.size(); ++i) {
            if (keep[i])
                kept.push_back(std::move(merged[i]));
        }
        merged = std::move(kept);
    }

    std::vector<util::Frame> frames;
    frames.reserve(merged.size());
    for (const auto &record : merged)
        frames.push_back(
            util::Frame{kKindResult, encodeResultPayload(record)});
    return util::writeFramedFileAtomic(path, kResultMagic, frames);
}

} // namespace fvc::resultcache
