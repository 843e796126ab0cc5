/**
 * @file
 * The sweep daemon's wire protocol: versioned, length-prefixed,
 * CRC32-covered frames over a Unix-domain stream socket.
 *
 * Every frame reuses the util/framed layout (magic u32 | kind u32 |
 * payload_len u32 | crc32(payload) u32 | payload), so a daemon
 * conversation has exactly the durability grammar of the spill and
 * result-store files: any single-bit corruption of a payload is
 * detected, and an absurd length can never make the reader walk off
 * the stream. The difference from the file readers is the failure
 * domain — a file reader skips a bad frame and keeps the rest,
 * while a stream has no trustworthy resynchronization point past a
 * bad head, so one malformed frame poisons exactly one connection
 * (the daemon closes it and keeps serving everyone else).
 *
 * Conversation grammar:
 *
 *   client: Hello{version,pid}        server: HelloAck{version,pid}
 *   client: SubmitCells{n, specs...}  server: Result{index,...} * n,
 *                                             BatchDone{n}
 *   client: Ping{token}               server: Pong{token}
 *   client: Stats                     server: StatsReply{...}
 *   client: Shutdown                  server: ShutdownAck (after
 *                                             draining in-flight
 *                                             batches)
 *
 * Result frames carry the submitting client's cell index, the
 * cell's durable fingerprint, and the 17-word encodeCellStats
 * payload — the exact serialization the fabric spills and the
 * persistent result store use, so the daemon cannot disagree with
 * either about what a result *is*. A FAILED cell (simulation error
 * after retries) is a Result frame with status 1 and zeroed stats,
 * rendered by clients exactly like a failed sweep job.
 */

#ifndef FVC_DAEMON_PROTOCOL_HH_
#define FVC_DAEMON_PROTOCOL_HH_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "fabric/cell.hh"
#include "fabric/spill.hh"
#include "util/error.hh"
#include "util/framed.hh"

namespace fvc::daemon {

/** The daemon's socket: FVC_DAEMON_SOCK, or the per-user default
 * "<TMPDIR>/fvc_sweepd-<uid>.sock" (per-user so two users on one
 * host never collide). */
std::string socketPath();

/** Daemon frame magic ("FVCD", little-endian). */
constexpr uint32_t kDaemonMagic = 0x44435646;

/** Protocol version; a Hello advertising anything else is refused
 * (the connection is poisoned before any cell is accepted). */
constexpr uint32_t kProtocolVersion = 1;

/** Frame kinds. */
enum FrameKind : uint32_t {
    kKindHello = 1,
    kKindHelloAck = 2,
    kKindSubmitCells = 3,
    kKindResult = 4,
    kKindBatchDone = 5,
    kKindPing = 6,
    kKindPong = 7,
    kKindStats = 8,
    kKindStatsReply = 9,
    kKindShutdown = 10,
    kKindShutdownAck = 11,
};

/** Hello / HelloAck payload. */
struct Hello
{
    uint32_t version = kProtocolVersion;
    uint32_t pid = 0;
};

/** One cell's answer within a SubmitCells batch. */
struct ResultFrame
{
    /** Index of the cell within the client's SubmitCells frame. */
    uint32_t index = 0;
    /** 0 = ok, 1 = FAILED (stats are zeroed). */
    uint32_t status = 0;
    /** fabric::cellFingerprint of the answered cell. */
    uint64_t fingerprint = 0;
    fabric::CellStats stats;
};

/** StatsReply payload: the daemon's observable serving state. */
struct DaemonStats
{
    uint32_t version = kProtocolVersion;
    uint32_t pid = 0;
    /** ResultRepository counters (shared across every client). */
    uint64_t store_hits = 0;
    uint64_t dedups = 0;
    uint64_t simulations = 0;
    uint64_t store_writes = 0;
    /** Server counters. */
    uint64_t batches = 0;
    uint64_t submits = 0;
    uint64_t cells_received = 0;
    uint64_t results_sent = 0;
    uint64_t malformed_frames = 0;
    uint64_t connections = 0;
};

// Payload codecs. Encoders produce the canonical little-endian
// byte order; decoders validate shape and every enum range, and
// return an Error (never trust) on anything malformed.

std::vector<uint8_t> encodeHello(const Hello &hello);
util::Expected<Hello> decodeHello(const std::vector<uint8_t> &p);

/** Serialize one CellSpec (appended to @p out). */
void encodeCellSpec(std::vector<uint8_t> &out,
                    const fabric::CellSpec &cell);

/** Decode one CellSpec at @p offset; advances it past the cell. */
util::Expected<fabric::CellSpec>
decodeCellSpec(const std::vector<uint8_t> &p, size_t &offset);

std::vector<uint8_t>
encodeSubmitCells(const std::vector<fabric::CellSpec> &cells);
util::Expected<std::vector<fabric::CellSpec>>
decodeSubmitCells(const std::vector<uint8_t> &p);

std::vector<uint8_t> encodeResultFrame(const ResultFrame &result);
util::Expected<ResultFrame>
decodeResultFrame(const std::vector<uint8_t> &p);

std::vector<uint8_t> encodeBatchDone(uint64_t count);
util::Expected<uint64_t>
decodeBatchDone(const std::vector<uint8_t> &p);

std::vector<uint8_t> encodePing(uint64_t token);
util::Expected<uint64_t> decodePing(const std::vector<uint8_t> &p);

std::vector<uint8_t> encodeDaemonStats(const DaemonStats &stats);
util::Expected<DaemonStats>
decodeDaemonStats(const std::vector<uint8_t> &p);

/**
 * Incremental frame parser over one stream connection.
 *
 * Feed it raw socket bytes; poll next() for complete, CRC-valid
 * frames. The first malformed head or payload (wrong magic, absurd
 * length, CRC mismatch) poisons the parser permanently — stream
 * framing past that point is unrecoverable, and the owner must
 * close the connection (and only that connection).
 */
class FrameBuffer
{
  public:
    /** Append @p len raw bytes from the socket. */
    void feed(const uint8_t *data, size_t len);

    /** Next complete frame, or nullopt when more bytes are needed
     * or the stream is poisoned. */
    std::optional<util::Frame> next();

    /** True once any malformed frame has been seen. */
    bool poisoned() const { return poisoned_; }

    /** Why the stream was poisoned (empty while healthy). */
    const std::string &poisonReason() const { return reason_; }

    /** Bytes buffered but not yet consumed by next(). */
    size_t pendingBytes() const { return buffer_.size() - pos_; }

  private:
    std::vector<uint8_t> buffer_;
    size_t pos_ = 0;
    bool poisoned_ = false;
    std::string reason_;
};

/** Write all of @p bytes to @p fd (MSG_NOSIGNAL, retries short
 * writes). Returns an Error when the peer is gone. */
std::optional<util::Error>
sendBytes(int fd, const std::vector<uint8_t> &bytes);

/** sendBytes of one frame. */
std::optional<util::Error>
sendFrame(int fd, uint32_t kind, const std::vector<uint8_t> &payload);

} // namespace fvc::daemon

#endif // FVC_DAEMON_PROTOCOL_HH_
