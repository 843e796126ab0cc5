#include "daemon/protocol.hh"

#include <cerrno>
#include <cstring>

#include <sys/socket.h>
#include <unistd.h>

#include "util/crc32.hh"
#include "util/knobs.hh"
#include "util/strings.hh"

namespace fvc::daemon {

namespace {

using util::get32;
using util::get64;
using util::put32;
using util::put64;

/** Longest SPECfp profile name a SubmitCells frame may carry; far
 * above any real profile, far below anything dangerous. */
constexpr uint32_t kMaxProfileNameBytes = 256;

util::Error
shapeError(const std::string &what)
{
    return {util::ErrorCode::Format, what, "daemon frame"};
}

/** Bounds-checked scalar reads for the decoders: every read is
 * validated against the payload length before touching bytes, so a
 * malformed frame can never walk the cursor out of the buffer. */
struct Reader
{
    const std::vector<uint8_t> &p;
    size_t pos = 0;
    bool failed = false;

    bool
    need(size_t n)
    {
        if (failed || p.size() - pos < n) {
            failed = true;
            return false;
        }
        return true;
    }

    uint32_t
    u32()
    {
        if (!need(4))
            return 0;
        uint32_t v = get32(p.data() + pos);
        pos += 4;
        return v;
    }

    uint64_t
    u64()
    {
        if (!need(8))
            return 0;
        uint64_t v = get64(p.data() + pos);
        pos += 8;
        return v;
    }
};

void
encodeCacheConfig(std::vector<uint8_t> &out,
                  const cache::CacheConfig &config)
{
    put32(out, config.size_bytes);
    put32(out, config.line_bytes);
    put32(out, config.assoc);
    put32(out, static_cast<uint32_t>(config.replacement));
    put32(out, static_cast<uint32_t>(config.write_policy));
}

bool
decodeCacheConfig(Reader &in, cache::CacheConfig &config)
{
    config.size_bytes = in.u32();
    config.line_bytes = in.u32();
    config.assoc = in.u32();
    const uint32_t replacement = in.u32();
    const uint32_t write_policy = in.u32();
    if (in.failed ||
        replacement > static_cast<uint32_t>(
                          cache::Replacement::Random) ||
        write_policy > static_cast<uint32_t>(
                           cache::WritePolicy::WriteThrough))
        return false;
    config.replacement =
        static_cast<cache::Replacement>(replacement);
    config.write_policy =
        static_cast<cache::WritePolicy>(write_policy);
    return true;
}

} // namespace

std::string
socketPath()
{
    const std::string path = util::knobText("FVC_DAEMON_SOCK");
    if (!path.empty())
        return path;
    return util::tempDir() + "/fvc_sweepd-" +
           std::to_string(::getuid()) + ".sock";
}

std::vector<uint8_t>
encodeHello(const Hello &hello)
{
    std::vector<uint8_t> out;
    put32(out, hello.version);
    put32(out, hello.pid);
    return out;
}

util::Expected<Hello>
decodeHello(const std::vector<uint8_t> &p)
{
    if (p.size() != 8)
        return shapeError("hello payload must be 8 bytes, got " +
                          std::to_string(p.size()));
    Hello hello;
    hello.version = get32(p.data());
    hello.pid = get32(p.data() + 4);
    return hello;
}

void
encodeCellSpec(std::vector<uint8_t> &out,
               const fabric::CellSpec &cell)
{
    put32(out, static_cast<uint32_t>(cell.bench));
    put32(out, static_cast<uint32_t>(cell.input));
    put32(out, static_cast<uint32_t>(cell.fp_name.size()));
    out.insert(out.end(), cell.fp_name.begin(), cell.fp_name.end());
    put64(out, cell.accesses);
    put64(out, cell.seed);
    put32(out, cell.top_k);
    encodeCacheConfig(out, cell.dmc);
    put32(out, cell.has_fvc ? 1u : 0u);
    put32(out, cell.fvc.entries);
    put32(out, cell.fvc.line_bytes);
    put32(out, static_cast<uint32_t>(cell.fvc.code_bits));
    put32(out, cell.fvc.assoc);
    put32(out, (cell.policy.skip_barren_insertions ? 1u : 0u) |
                   (cell.policy.write_allocate_frequent ? 2u : 0u));
    put64(out, cell.policy.occupancy_sample_interval);
    put32(out, cell.victim_entries);
    put32(out, cell.has_l2 ? 1u : 0u);
    encodeCacheConfig(out, cell.l2);
}

util::Expected<fabric::CellSpec>
decodeCellSpec(const std::vector<uint8_t> &p, size_t &offset)
{
    Reader in{p, offset};
    fabric::CellSpec cell;
    const uint32_t bench = in.u32();
    const uint32_t input = in.u32();
    const uint32_t name_len = in.u32();
    if (in.failed ||
        bench > static_cast<uint32_t>(workload::SpecInt::Vortex147) ||
        input > static_cast<uint32_t>(workload::InputSet::Train))
        return shapeError("cell spec: bad benchmark/input selector");
    if (name_len > kMaxProfileNameBytes || !in.need(name_len))
        return shapeError("cell spec: bad profile name length " +
                          std::to_string(name_len));
    cell.bench = static_cast<workload::SpecInt>(bench);
    cell.input = static_cast<workload::InputSet>(input);
    cell.fp_name.assign(
        reinterpret_cast<const char *>(p.data() + in.pos), name_len);
    in.pos += name_len;
    cell.accesses = in.u64();
    cell.seed = in.u64();
    cell.top_k = in.u32();
    if (!decodeCacheConfig(in, cell.dmc))
        return shapeError("cell spec: bad DMC geometry");
    const uint32_t has_fvc = in.u32();
    cell.fvc.entries = in.u32();
    cell.fvc.line_bytes = in.u32();
    cell.fvc.code_bits = in.u32();
    cell.fvc.assoc = in.u32();
    const uint32_t policy_bits = in.u32();
    cell.policy.occupancy_sample_interval = in.u64();
    cell.victim_entries = in.u32();
    const uint32_t has_l2 = in.u32();
    if (in.failed || has_fvc > 1 || has_l2 > 1 || policy_bits > 3)
        return shapeError("cell spec: bad FVC/policy fields");
    cell.has_fvc = has_fvc != 0;
    cell.has_l2 = has_l2 != 0;
    cell.policy.skip_barren_insertions = (policy_bits & 1u) != 0;
    cell.policy.write_allocate_frequent = (policy_bits & 2u) != 0;
    if (!decodeCacheConfig(in, cell.l2))
        return shapeError("cell spec: bad L2 geometry");
    if ((cell.has_fvc && (cell.victim_entries || cell.has_l2)) ||
        (cell.victim_entries && cell.has_l2))
        return shapeError("cell spec: mixes exclusive system kinds");
    offset = in.pos;
    return cell;
}

std::vector<uint8_t>
encodeSubmitCells(const std::vector<fabric::CellSpec> &cells)
{
    std::vector<uint8_t> out;
    put32(out, static_cast<uint32_t>(cells.size()));
    for (const auto &cell : cells)
        encodeCellSpec(out, cell);
    return out;
}

util::Expected<std::vector<fabric::CellSpec>>
decodeSubmitCells(const std::vector<uint8_t> &p)
{
    if (p.size() < 4)
        return shapeError("submit payload shorter than its count");
    const uint32_t count = get32(p.data());
    // A cell encodes to well over 32 bytes, so this bound alone
    // rejects any count the payload cannot possibly hold.
    if (count > p.size() / 32)
        return shapeError("submit count " + std::to_string(count) +
                          " impossible for " +
                          std::to_string(p.size()) + " bytes");
    std::vector<fabric::CellSpec> cells;
    cells.reserve(count);
    size_t offset = 4;
    for (uint32_t i = 0; i < count; ++i) {
        auto cell = decodeCellSpec(p, offset);
        if (!cell.ok())
            return cell.error();
        cells.push_back(std::move(cell.value()));
    }
    if (offset != p.size())
        return shapeError("submit payload has " +
                          std::to_string(p.size() - offset) +
                          " trailing bytes");
    return cells;
}

std::vector<uint8_t>
encodeResultFrame(const ResultFrame &result)
{
    std::vector<uint8_t> out;
    put32(out, result.index);
    put32(out, result.status);
    put64(out, result.fingerprint);
    fabric::encodeCellStats(out, result.stats);
    return out;
}

util::Expected<ResultFrame>
decodeResultFrame(const std::vector<uint8_t> &p)
{
    constexpr size_t kBytes = 4 + 4 + 8 + fabric::kCellStatsBytes;
    if (p.size() != kBytes)
        return shapeError("result payload must be " +
                          std::to_string(kBytes) + " bytes, got " +
                          std::to_string(p.size()));
    ResultFrame result;
    result.index = get32(p.data());
    result.status = get32(p.data() + 4);
    if (result.status > 1)
        return shapeError("result status out of range");
    result.fingerprint = get64(p.data() + 8);
    fabric::decodeCellStats(p.data() + 16, result.stats);
    return result;
}

std::vector<uint8_t>
encodeBatchDone(uint64_t count)
{
    std::vector<uint8_t> out;
    put64(out, count);
    return out;
}

util::Expected<uint64_t>
decodeBatchDone(const std::vector<uint8_t> &p)
{
    if (p.size() != 8)
        return shapeError("batch-done payload must be 8 bytes");
    return get64(p.data());
}

std::vector<uint8_t>
encodePing(uint64_t token)
{
    std::vector<uint8_t> out;
    put64(out, token);
    return out;
}

util::Expected<uint64_t>
decodePing(const std::vector<uint8_t> &p)
{
    if (p.size() != 8)
        return shapeError("ping payload must be 8 bytes");
    return get64(p.data());
}

std::vector<uint8_t>
encodeDaemonStats(const DaemonStats &stats)
{
    std::vector<uint8_t> out;
    put32(out, stats.version);
    put32(out, stats.pid);
    put64(out, stats.store_hits);
    put64(out, stats.dedups);
    put64(out, stats.simulations);
    put64(out, stats.store_writes);
    put64(out, stats.batches);
    put64(out, stats.submits);
    put64(out, stats.cells_received);
    put64(out, stats.results_sent);
    put64(out, stats.malformed_frames);
    put64(out, stats.connections);
    return out;
}

util::Expected<DaemonStats>
decodeDaemonStats(const std::vector<uint8_t> &p)
{
    if (p.size() != 8 + 10 * 8)
        return shapeError("stats payload must be 88 bytes, got " +
                          std::to_string(p.size()));
    DaemonStats stats;
    stats.version = get32(p.data());
    stats.pid = get32(p.data() + 4);
    const uint8_t *q = p.data() + 8;
    uint64_t *fields[] = {
        &stats.store_hits,    &stats.dedups,
        &stats.simulations,   &stats.store_writes,
        &stats.batches,       &stats.submits,
        &stats.cells_received, &stats.results_sent,
        &stats.malformed_frames, &stats.connections};
    for (uint64_t *field : fields) {
        *field = get64(q);
        q += 8;
    }
    return stats;
}

void
FrameBuffer::feed(const uint8_t *data, size_t len)
{
    // Compact lazily: only when the consumed prefix dominates the
    // buffer, so feeding is amortized O(bytes).
    if (pos_ > 4096 && pos_ > buffer_.size() / 2) {
        buffer_.erase(buffer_.begin(),
                      buffer_.begin() +
                          static_cast<ptrdiff_t>(pos_));
        pos_ = 0;
    }
    buffer_.insert(buffer_.end(), data, data + len);
}

std::optional<util::Frame>
FrameBuffer::next()
{
    if (poisoned_)
        return std::nullopt;
    if (buffer_.size() - pos_ < util::kFrameHeadBytes)
        return std::nullopt;
    const uint8_t *head = buffer_.data() + pos_;
    const uint32_t magic = get32(head);
    const uint32_t kind = get32(head + 4);
    const uint32_t len = get32(head + 8);
    const uint32_t crc = get32(head + 12);
    if (magic != kDaemonMagic) {
        poisoned_ = true;
        reason_ = "bad frame magic " + util::hex32(magic);
        return std::nullopt;
    }
    if (len > util::kMaxFramePayloadBytes) {
        poisoned_ = true;
        reason_ = "absurd frame length " + std::to_string(len);
        return std::nullopt;
    }
    if (buffer_.size() - pos_ < util::kFrameHeadBytes + len)
        return std::nullopt;
    const uint8_t *payload = head + util::kFrameHeadBytes;
    if (util::crc32(payload, len) != crc) {
        poisoned_ = true;
        reason_ = "frame CRC mismatch (kind " +
                  std::to_string(kind) + ", " +
                  std::to_string(len) + " bytes)";
        return std::nullopt;
    }
    util::Frame frame;
    frame.kind = kind;
    frame.payload.assign(payload, payload + len);
    pos_ += util::kFrameHeadBytes + len;
    return frame;
}

std::optional<util::Error>
sendBytes(int fd, const std::vector<uint8_t> &bytes)
{
    size_t sent = 0;
    while (sent < bytes.size()) {
        const ssize_t n =
            ::send(fd, bytes.data() + sent, bytes.size() - sent,
                   MSG_NOSIGNAL);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return util::Error{util::ErrorCode::Io,
                               std::string("send failed: ") +
                                   std::strerror(errno),
                               "daemon socket"};
        }
        sent += static_cast<size_t>(n);
    }
    return std::nullopt;
}

std::optional<util::Error>
sendFrame(int fd, uint32_t kind, const std::vector<uint8_t> &payload)
{
    return sendBytes(fd, util::frameBytes(kDaemonMagic, kind, payload));
}

} // namespace fvc::daemon
