#include "fabric/spill.hh"

#include "util/framed.hh"

namespace fvc::fabric {

namespace {

constexpr uint32_t kFrameMagic = 0x46565350; // "FVSP"
constexpr uint32_t kKindHeader = 1;
constexpr uint32_t kKindRecord = 2;

using util::get32;
using util::get64;
using util::put32;
using util::put64;

// Record payload: cell_index u32 | attempts u32 | fingerprint u64 |
// run_id u64 | worker_pid u32 | reserved u32 | 8 CacheStats u64 |
// 7 FvcStats u64 | occupancy_sum bits u64 | occupancy_samples u64.
constexpr size_t kRecordPayloadBytes =
    4 + 4 + 8 + 8 + 4 + 4 + 17 * 8;

constexpr size_t kHeaderPayloadBytes = 8 + 4 + 4;

std::vector<uint8_t>
encodeHeaderPayload(const SpillHeader &header)
{
    std::vector<uint8_t> out;
    out.reserve(kHeaderPayloadBytes);
    put64(out, header.run_id);
    put32(out, header.worker_pid);
    put32(out, header.worker_id);
    return out;
}

SpillHeader
decodeHeaderPayload(const uint8_t *p)
{
    SpillHeader header;
    header.run_id = get64(p);
    header.worker_pid = get32(p + 8);
    header.worker_id = get32(p + 12);
    return header;
}

SpillRecord
decodeRecordPayload(const uint8_t *p)
{
    SpillRecord r;
    r.cell_index = get32(p);
    r.attempts = get32(p + 4);
    r.fingerprint = get64(p + 8);
    r.run_id = get64(p + 16);
    r.worker_pid = get32(p + 24);
    decodeCellStats(p + 32, r.stats);
    return r;
}

} // namespace

void
encodeCellStats(std::vector<uint8_t> &out, const CellStats &stats)
{
    const auto &c = stats.cache;
    put64(out, c.read_hits);
    put64(out, c.read_misses);
    put64(out, c.write_hits);
    put64(out, c.write_misses);
    put64(out, c.fills);
    put64(out, c.writebacks);
    put64(out, c.fetch_bytes);
    put64(out, c.writeback_bytes);
    const auto &f = stats.fvc;
    put64(out, f.fvc_read_hits);
    put64(out, f.fvc_write_hits);
    put64(out, f.partial_misses);
    put64(out, f.write_allocations);
    put64(out, f.insertions);
    put64(out, f.insertions_skipped);
    put64(out, f.fvc_writebacks);
    put64(out, util::doubleBits(f.occupancy_sum));
    put64(out, f.occupancy_samples);
}

const uint8_t *
decodeCellStats(const uint8_t *p, CellStats &stats)
{
    auto next = [&p] {
        uint64_t v = get64(p);
        p += 8;
        return v;
    };
    auto &c = stats.cache;
    c.read_hits = next();
    c.read_misses = next();
    c.write_hits = next();
    c.write_misses = next();
    c.fills = next();
    c.writebacks = next();
    c.fetch_bytes = next();
    c.writeback_bytes = next();
    auto &f = stats.fvc;
    f.fvc_read_hits = next();
    f.fvc_write_hits = next();
    f.partial_misses = next();
    f.write_allocations = next();
    f.insertions = next();
    f.insertions_skipped = next();
    f.fvc_writebacks = next();
    f.occupancy_sum = util::bitsDouble(next());
    f.occupancy_samples = next();
    return p;
}

bool
CellStats::identical(const CellStats &other) const
{
    SpillRecord a, b;
    a.stats = *this;
    b.stats = other;
    // Compare through the canonical serialization so the comparison
    // and the on-disk format can never drift apart.
    std::vector<uint8_t> ea = encodeRecordPayload(a);
    std::vector<uint8_t> eb = encodeRecordPayload(b);
    return std::equal(ea.begin() + 32, ea.end(), eb.begin() + 32);
}

std::vector<uint8_t>
encodeRecordPayload(const SpillRecord &record)
{
    std::vector<uint8_t> out;
    out.reserve(kRecordPayloadBytes);
    put32(out, record.cell_index);
    put32(out, record.attempts);
    put64(out, record.fingerprint);
    put64(out, record.run_id);
    put32(out, record.worker_pid);
    put32(out, 0); // reserved
    encodeCellStats(out, record.stats);
    fvc_assert(out.size() == kRecordPayloadBytes,
               "spill record payload size drifted");
    return out;
}

util::Expected<SpillWriter>
SpillWriter::open(const std::string &path,
                  const SpillHeader &header)
{
    auto appender = util::FramedAppender::open(path, kFrameMagic);
    if (!appender.ok())
        return appender.error();
    SpillWriter writer;
    writer.appender_ = std::move(appender.value());
    // The header frame is not fsync'd on its own: it becomes
    // durable with the first record, and a spill holding only a
    // header holds no results worth preserving.
    if (auto err = writer.appender_.append(
            kKindHeader, encodeHeaderPayload(header),
            /*sync=*/false)) {
        return *err;
    }
    return writer;
}

std::optional<util::Error>
SpillWriter::append(const SpillRecord &record,
                    std::optional<uint32_t> corrupt_payload_bit)
{
    fvc_assert(valid(), "append on closed SpillWriter");
    // One fsync per record: a cell marked Done in the queue must
    // imply a durable record, or a crash after markDone could lose
    // a result the queue claims to have.
    return appender_.append(kKindRecord,
                            encodeRecordPayload(record),
                            /*sync=*/true, corrupt_payload_bit);
}

util::Expected<SpillContents>
readSpillFile(const std::string &path)
{
    auto framed = util::readFramedFile(path, kFrameMagic);
    if (!framed.ok())
        return framed.error();

    SpillContents contents;
    contents.rejected_frames = framed.value().rejected_frames;
    contents.truncated_tail = framed.value().truncated_tail;
    for (const auto &frame : framed.value().frames) {
        const uint8_t *payload = frame.payload.data();
        if (frame.kind == kKindHeader &&
            frame.payload.size() == kHeaderPayloadBytes) {
            contents.header = decodeHeaderPayload(payload);
        } else if (frame.kind == kKindRecord &&
                   frame.payload.size() == kRecordPayloadBytes) {
            contents.records.push_back(
                decodeRecordPayload(payload));
        } else {
            ++contents.rejected_frames;
        }
    }
    return contents;
}

} // namespace fvc::fabric
