#include "trace/trace_file.hh"

#include <cstring>

#include "util/bitops.hh"
#include "util/logging.hh"

namespace fvc::trace {

namespace {

constexpr size_t kBufferRecords = 16384;

void
put32(uint8_t *p, uint32_t v)
{
    p[0] = static_cast<uint8_t>(v);
    p[1] = static_cast<uint8_t>(v >> 8);
    p[2] = static_cast<uint8_t>(v >> 16);
    p[3] = static_cast<uint8_t>(v >> 24);
}

void
put64(uint8_t *p, uint64_t v)
{
    put32(p, static_cast<uint32_t>(v));
    put32(p + 4, static_cast<uint32_t>(v >> 32));
}

uint32_t
get32(const uint8_t *p)
{
    return static_cast<uint32_t>(p[0]) |
           (static_cast<uint32_t>(p[1]) << 8) |
           (static_cast<uint32_t>(p[2]) << 16) |
           (static_cast<uint32_t>(p[3]) << 24);
}

uint64_t
get64(const uint8_t *p)
{
    return static_cast<uint64_t>(get32(p)) |
           (static_cast<uint64_t>(get32(p + 4)) << 32);
}

} // namespace

void
encodeRecord(const MemRecord &rec, uint8_t *out)
{
    out[0] = static_cast<uint8_t>(rec.op);
    put32(out + 1, rec.addr);
    put32(out + 5, rec.value);
    put64(out + 9, rec.icount);
}

util::Expected<MemRecord>
decodeRecordChecked(const uint8_t *in)
{
    if (!validOpByte(in[0])) {
        return util::Error{util::ErrorCode::Corrupt,
                           "invalid op byte " +
                               std::to_string(unsigned(in[0])),
                           ""};
    }
    MemRecord rec;
    rec.op = static_cast<Op>(in[0]);
    rec.addr = get32(in + 1);
    rec.value = get32(in + 5);
    rec.icount = get64(in + 9);
    return rec;
}

MemRecord
decodeRecord(const uint8_t *in)
{
    auto rec = decodeRecordChecked(in);
    fvc_assert(rec.ok(), "decodeRecord: ", rec.error().describe());
    return rec.value();
}

TraceWriter::TraceWriter(const std::string &path,
                         const std::string &workload, uint64_t seed)
    : file_(std::fopen(path.c_str(), "wb")), path_(path)
{
    if (!file_)
        fvc_fatal("cannot open trace file for writing: ", path);
    header_.seed = seed;
    std::strncpy(header_.workload, workload.c_str(),
                 sizeof(header_.workload) - 1);
    // Reserve header space; back-patched on close().
    if (std::fwrite(&header_, sizeof(header_), 1, file_) != 1)
        fvc_fatal("cannot write trace header: ", path);
    buffer_.reserve(kBufferRecords * kRecordBytes);
}

TraceWriter::~TraceWriter()
{
    close();
}

void
TraceWriter::append(const MemRecord &rec)
{
    fvc_assert(file_, "append on closed TraceWriter");
    size_t off = buffer_.size();
    buffer_.resize(off + kRecordBytes);
    encodeRecord(rec, buffer_.data() + off);
    ++count_;
    if (rec.icount > max_icount_)
        max_icount_ = rec.icount;
    if (buffer_.size() >= kBufferRecords * kRecordBytes)
        flushBuffer();
}

void
TraceWriter::flushBuffer()
{
    if (buffer_.empty())
        return;
    uint8_t frame[kChunkFrameBytes];
    put32(frame, static_cast<uint32_t>(buffer_.size()));
    put32(frame + 4, util::crc32(buffer_.data(), buffer_.size()));
    if (std::fwrite(frame, 1, sizeof(frame), file_) !=
        sizeof(frame)) {
        fvc_fatal("short write to trace file: ", path_);
    }
    if (std::fwrite(buffer_.data(), 1, buffer_.size(), file_) !=
        buffer_.size()) {
        fvc_fatal("short write to trace file: ", path_);
    }
    buffer_.clear();
}

void
TraceWriter::close()
{
    if (!file_)
        return;
    flushBuffer();
    header_.record_count = count_;
    header_.instruction_count = max_icount_;
    std::fseek(file_, 0, SEEK_SET);
    if (std::fwrite(&header_, sizeof(header_), 1, file_) != 1)
        fvc_fatal("cannot back-patch trace header: ", path_);
    std::fclose(file_);
    file_ = nullptr;
}

std::optional<util::Error>
TraceReader::init(const std::string &path)
{
    path_ = path;
    file_ = std::fopen(path.c_str(), "rb");
    if (!file_) {
        return util::Error{util::ErrorCode::Io,
                           "cannot open trace file for reading",
                           path};
    }
    if (std::fread(&header_, sizeof(header_), 1, file_) != 1) {
        return util::Error{util::ErrorCode::Truncated,
                           "cannot read trace header", path};
    }
    if (header_.magic != kTraceMagic) {
        return util::Error{util::ErrorCode::Format,
                           "bad trace magic", path};
    }
    if (header_.version != kTraceVersion) {
        return util::Error{util::ErrorCode::Format,
                           "unsupported trace version " +
                               std::to_string(header_.version),
                           path};
    }
    remaining_ = header_.record_count;
    return std::nullopt;
}

TraceReader::TraceReader(const std::string &path)
{
    if (auto err = init(path))
        fvc_fatal(err->message, err->context.empty() ? "" : " in ",
                  err->context);
}

util::Expected<std::unique_ptr<TraceReader>>
TraceReader::open(const std::string &path)
{
    // No make_unique: the integrity-checking ctor is private.
    std::unique_ptr<TraceReader> reader(new TraceReader());
    if (auto err = reader->init(path))
        return *err;
    return reader;
}

TraceReader::~TraceReader()
{
    if (file_)
        std::fclose(file_);
}

bool
TraceReader::fail(util::ErrorCode code, const std::string &message)
{
    error_ = util::Error{code, message, path_};
    remaining_ = 0;
    return false;
}

bool
TraceReader::refill()
{
    uint8_t frame[kChunkFrameBytes];
    std::string chunk = "chunk " + std::to_string(chunk_index_);
    if (std::fread(frame, 1, sizeof(frame), file_) != sizeof(frame)) {
        return fail(util::ErrorCode::Truncated,
                    "trace ends " + std::to_string(remaining_) +
                        " records early (missing " + chunk + ")");
    }
    uint32_t payload_bytes = get32(frame);
    uint32_t crc = get32(frame + 4);
    if (payload_bytes == 0 || payload_bytes % kRecordBytes != 0 ||
        payload_bytes > kMaxChunkBytes) {
        return fail(util::ErrorCode::Corrupt,
                    chunk + " has invalid payload length " +
                        std::to_string(payload_bytes));
    }
    buffer_.resize(payload_bytes);
    if (std::fread(buffer_.data(), 1, payload_bytes, file_) !=
        payload_bytes) {
        return fail(util::ErrorCode::Truncated,
                    chunk + " payload is truncated");
    }
    if (util::crc32(buffer_.data(), payload_bytes) != crc) {
        return fail(util::ErrorCode::Corrupt,
                    chunk + " CRC mismatch (corrupted trace data)");
    }
    ++chunk_index_;
    buf_pos_ = 0;
    buf_len_ = payload_bytes;
    return true;
}

bool
TraceReader::next(MemRecord &out)
{
    if (remaining_ == 0)
        return false;
    if (buf_pos_ >= buf_len_ && !refill())
        return false;
    auto rec = decodeRecordChecked(buffer_.data() + buf_pos_);
    if (!rec.ok())
        return fail(rec.error().code, rec.error().message);
    out = rec.value();
    buf_pos_ += kRecordBytes;
    --remaining_;
    return true;
}

} // namespace fvc::trace
