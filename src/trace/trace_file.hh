/**
 * @file
 * Binary trace file format, writer and reader.
 *
 * Format v2 layout: a fixed header (magic, version, record count,
 * metadata) followed by framed data chunks, each
 *
 *     u32 payload_bytes | u32 crc32(payload) | payload
 *
 * where the payload is a whole number of packed little-endian
 * records. The per-chunk CRC means any single-bit corruption of the
 * data is detected and reported as a structured util::Error instead
 * of being silently decoded. Any other version (including the old
 * unframed v1) is refused as an unsupported format.
 */

#ifndef FVC_TRACE_TRACE_FILE_HH_
#define FVC_TRACE_TRACE_FILE_HH_

#include <cstddef>
#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "trace/record.hh"
#include "trace/source.hh"
#include "util/error.hh"

namespace fvc::trace {

/** Magic bytes identifying a trace file ("FVCT"). */
inline constexpr uint32_t kTraceMagic = 0x46564354;
/** Current format version (chunked, CRC-protected). */
inline constexpr uint32_t kTraceVersion = 2;

/** Trace file header, stored verbatim at offset 0. */
struct TraceHeader
{
    uint32_t magic = kTraceMagic;
    uint32_t version = kTraceVersion;
    /** Number of records that follow. */
    uint64_t record_count = 0;
    /** Total instructions covered by the trace. */
    uint64_t instruction_count = 0;
    /** Generator seed, for provenance. */
    uint64_t seed = 0;
    /** NUL-padded workload name. */
    char workload[32] = {};
};

/** Bytes framing each v2 data chunk (payload length + CRC32). */
inline constexpr size_t kChunkFrameBytes = 8;
/** Upper bound on a v2 chunk payload; larger lengths are corrupt. */
inline constexpr size_t kMaxChunkBytes = 1u << 26;

/** Streaming writer for trace files (always writes v2). */
class TraceWriter
{
  public:
    /**
     * Open @p path for writing and reserve the header.
     * Calls fvc_fatal on IO failure.
     */
    explicit TraceWriter(const std::string &path,
                         const std::string &workload = "",
                         uint64_t seed = 0);
    ~TraceWriter();

    TraceWriter(const TraceWriter &) = delete;
    TraceWriter &operator=(const TraceWriter &) = delete;

    /** Append one record. */
    void append(const MemRecord &rec);

    /** Flush, back-patch the header, and close. Idempotent. */
    void close();

    uint64_t recordCount() const { return count_; }

  private:
    std::FILE *file_;
    std::string path_;
    TraceHeader header_;
    uint64_t count_ = 0;
    uint64_t max_icount_ = 0;
    std::vector<uint8_t> buffer_;

    void flushBuffer();
};

/**
 * Streaming reader; a TraceSource over a trace file in the current
 * chunked format.
 *
 * Integrity errors mid-stream (CRC mismatch, truncated chunk, bad
 * op byte) make next() return false with error() set; callers that
 * care about the distinction between EOF and corruption must check
 * error() after the record loop.
 */
class TraceReader : public TraceSource
{
  public:
    /** Open @p path; fvc_fatal on missing file or bad header. */
    explicit TraceReader(const std::string &path);
    ~TraceReader() override;

    TraceReader(const TraceReader &) = delete;
    TraceReader &operator=(const TraceReader &) = delete;

    /**
     * Open @p path, reporting header problems as a structured
     * Error instead of exiting — the harness uses this to degrade
     * around one bad trace file.
     */
    static util::Expected<std::unique_ptr<TraceReader>> open(
        const std::string &path);

    bool next(MemRecord &out) override;

    const TraceHeader &header() const { return header_; }

    /** Set when next() stopped on corruption rather than EOF. */
    const std::optional<util::Error> &error() const { return error_; }

  private:
    TraceReader() = default;

    std::FILE *file_ = nullptr;
    std::string path_;
    TraceHeader header_;
    uint64_t remaining_ = 0;
    uint64_t chunk_index_ = 0;
    std::optional<util::Error> error_;
    std::vector<uint8_t> buffer_;
    size_t buf_pos_ = 0;
    size_t buf_len_ = 0;

    /** Open + header validation; shared by the ctor and open(). */
    std::optional<util::Error> init(const std::string &path);
    bool refill();
    bool fail(util::ErrorCode code, const std::string &message);
};

/** On-disk record size in bytes. */
inline constexpr size_t kRecordBytes = 1 + 4 + 4 + 8;

/** True iff @p op_byte names a valid Op. */
constexpr bool
validOpByte(uint8_t op_byte)
{
    return op_byte <= static_cast<uint8_t>(Op::Free);
}

/** Serialize a record into @p out (must have kRecordBytes room). */
void encodeRecord(const MemRecord &rec, uint8_t *out);

/**
 * Deserialize a record from @p in, rejecting out-of-range op bytes
 * (casting an arbitrary byte into the Op enum would be silent
 * garbage).
 */
util::Expected<MemRecord> decodeRecordChecked(const uint8_t *in);

/**
 * Deserialize a record from @p in; fvc_panic on an invalid op byte.
 * Use decodeRecordChecked() for untrusted input.
 */
MemRecord decodeRecord(const uint8_t *in);

} // namespace fvc::trace

#endif // FVC_TRACE_TRACE_FILE_HH_
