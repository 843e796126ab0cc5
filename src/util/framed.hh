/**
 * @file
 * CRC-framed record files, shared by the fabric spill format and
 * the persistent result cache.
 *
 * One frame is: magic u32 | kind u32 | payload_len u32 |
 * crc32(payload) u32 | payload bytes — all little-endian. The magic
 * identifies the file family (spill vs result cache), the kind the
 * record type within it, and the CRC guarantees any single-bit
 * corruption of a payload is detected. Reader semantics, shared by
 * every consumer so crash-tolerance behaves identically everywhere:
 *
 *  - A frame whose CRC fails is rejected alone: the head told us
 *    where the next frame starts, so one flipped payload bit costs
 *    one record, never the file.
 *  - A valid head whose payload runs past EOF is a torn tail (a
 *    crash mid-append), not corruption: everything before it is
 *    served, nothing after it existed.
 *  - A bad magic or absurd length means the frame boundary itself
 *    is gone; the rest of the file is unreachable and counts as one
 *    rejected frame.
 */

#ifndef FVC_UTIL_FRAMED_HH_
#define FVC_UTIL_FRAMED_HH_

#include <cstdint>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "util/error.hh"

namespace fvc::util {

/** Bytes before the payload: magic, kind, length, CRC. */
constexpr size_t kFrameHeadBytes = 16;

/** Reject frames advertising more payload than this — a corrupt
 * length field must not make the reader walk off a mapping. */
constexpr uint32_t kMaxFramePayloadBytes = 1u << 20;

// Little-endian scalar packing, shared by every framed payload
// encoder so the on-disk byte order can never depend on the host.

inline void
put32(std::vector<uint8_t> &out, uint32_t v)
{
    for (unsigned shift = 0; shift < 32; shift += 8)
        out.push_back(static_cast<uint8_t>(v >> shift));
}

inline void
put64(std::vector<uint8_t> &out, uint64_t v)
{
    put32(out, static_cast<uint32_t>(v));
    put32(out, static_cast<uint32_t>(v >> 32));
}

inline uint32_t
get32(const uint8_t *p)
{
    return static_cast<uint32_t>(p[0]) |
           (static_cast<uint32_t>(p[1]) << 8) |
           (static_cast<uint32_t>(p[2]) << 16) |
           (static_cast<uint32_t>(p[3]) << 24);
}

inline uint64_t
get64(const uint8_t *p)
{
    return static_cast<uint64_t>(get32(p)) |
           (static_cast<uint64_t>(get32(p + 4)) << 32);
}

/** The bit pattern of @p value, so doubles round-trip exactly
 * (byte-identical, NaNs and signed zeros included). */
inline uint64_t
doubleBits(double value)
{
    uint64_t bits;
    std::memcpy(&bits, &value, sizeof(bits));
    return bits;
}

inline double
bitsDouble(uint64_t bits)
{
    double value;
    std::memcpy(&value, &bits, sizeof(value));
    return value;
}

/** One decoded frame: its kind tag and raw payload bytes. */
struct Frame
{
    uint32_t kind = 0;
    std::vector<uint8_t> payload;
};

/** Everything salvageable from one framed file. */
struct FramedContents
{
    /** CRC-valid frames, file order. Callers still validate kind
     * and payload length — a valid frame of the wrong shape is the
     * caller's rejected record, not ours. */
    std::vector<Frame> frames;
    /** Frames dropped: CRC mismatch, bad magic, absurd length. */
    uint64_t rejected_frames = 0;
    /** File ended inside a frame (crash mid-append). */
    bool truncated_tail = false;
};

/**
 * Serialize one frame. @p corrupt_payload_bit is a test hook: flip
 * that payload bit (mod payload size) after the CRC is computed, so
 * durability tests can manufacture precisely-corrupt frames.
 */
std::vector<uint8_t>
frameBytes(uint32_t magic, uint32_t kind,
           const std::vector<uint8_t> &payload,
           std::optional<uint32_t> corrupt_payload_bit =
               std::nullopt);

/** Read every salvageable frame of @p path (see reader semantics
 * above). Errors only for files that cannot be opened/mapped. */
Expected<FramedContents> readFramedFile(const std::string &path,
                                        uint32_t magic);

/**
 * Append-only framed writer over one fd. Used where records must
 * become durable one at a time (the fabric spill: a cell marked
 * Done must imply a durable record). append() with sync=true costs
 * one write(2) + fsync(2) per record.
 */
class FramedAppender
{
  public:
    static Expected<FramedAppender> open(const std::string &path,
                                         uint32_t magic);

    FramedAppender() = default;
    ~FramedAppender();
    FramedAppender(FramedAppender &&other) noexcept;
    FramedAppender &operator=(FramedAppender &&other) noexcept;
    FramedAppender(const FramedAppender &) = delete;
    FramedAppender &operator=(const FramedAppender &) = delete;

    std::optional<Error>
    append(uint32_t kind, const std::vector<uint8_t> &payload,
           bool sync,
           std::optional<uint32_t> corrupt_payload_bit =
               std::nullopt);

    bool valid() const { return fd_ >= 0; }
    const std::string &path() const { return path_; }
    void close();

  private:
    int fd_ = -1;
    uint32_t magic_ = 0;
    std::string path_;
};

/**
 * Publish @p frames as the complete new contents of @p path:
 * write to a pid-unique temp file, fsync, rename over the target.
 * Readers never observe a partial file, and concurrent publishers
 * each install a self-consistent snapshot (last rename wins).
 */
std::optional<Error>
writeFramedFileAtomic(const std::string &path, uint32_t magic,
                      const std::vector<Frame> &frames);

} // namespace fvc::util

#endif // FVC_UTIL_FRAMED_HH_
