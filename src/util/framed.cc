#include "util/framed.hh"

#include <cerrno>
#include <cstring>

#include <fcntl.h>
#include <unistd.h>

#include "util/crc32.hh"
#include "util/mmap_file.hh"

namespace fvc::util {

std::vector<uint8_t>
frameBytes(uint32_t magic, uint32_t kind,
           const std::vector<uint8_t> &payload,
           std::optional<uint32_t> corrupt_payload_bit)
{
    std::vector<uint8_t> out;
    out.reserve(kFrameHeadBytes + payload.size());
    put32(out, magic);
    put32(out, kind);
    put32(out, static_cast<uint32_t>(payload.size()));
    put32(out, crc32(payload.data(), payload.size()));
    out.insert(out.end(), payload.begin(), payload.end());
    if (corrupt_payload_bit) {
        size_t bit = *corrupt_payload_bit % (payload.size() * 8);
        out[kFrameHeadBytes + bit / 8] ^=
            static_cast<uint8_t>(1u << (bit % 8));
    }
    return out;
}

Expected<FramedContents>
readFramedFile(const std::string &path, uint32_t magic)
{
    auto mapped = MappedFile::open(path);
    if (!mapped.ok())
        return mapped.error();
    const uint8_t *data = mapped.value().data();
    const size_t size = mapped.value().size();

    FramedContents contents;
    size_t pos = 0;
    while (pos < size) {
        if (size - pos < kFrameHeadBytes) {
            contents.truncated_tail = true;
            break;
        }
        const uint8_t *head = data + pos;
        uint32_t head_magic = get32(head);
        uint32_t kind = get32(head + 4);
        uint32_t len = get32(head + 8);
        uint32_t crc = get32(head + 12);
        if (head_magic != magic || len > kMaxFramePayloadBytes) {
            // Unframed garbage: no way to find the next frame
            // boundary, so everything from here on is lost.
            ++contents.rejected_frames;
            break;
        }
        if (size - pos - kFrameHeadBytes < len) {
            // Valid head whose payload runs past EOF: the classic
            // crash-mid-append torn tail, not corruption.
            contents.truncated_tail = true;
            break;
        }
        const uint8_t *payload = head + kFrameHeadBytes;
        pos += kFrameHeadBytes + len;
        if (crc32(payload, len) != crc) {
            ++contents.rejected_frames;
            continue; // frame boundary intact; skip just this one
        }
        contents.frames.push_back(
            Frame{kind, std::vector<uint8_t>(payload,
                                             payload + len)});
    }
    return contents;
}

Expected<FramedAppender>
FramedAppender::open(const std::string &path, uint32_t magic)
{
    int fd =
        ::open(path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
    if (fd < 0) {
        return Error{ErrorCode::Io,
                     std::string("open failed: ") +
                         std::strerror(errno),
                     path};
    }
    FramedAppender appender;
    appender.fd_ = fd;
    appender.magic_ = magic;
    appender.path_ = path;
    return appender;
}

FramedAppender::~FramedAppender()
{
    close();
}

FramedAppender::FramedAppender(FramedAppender &&other) noexcept
    : fd_(other.fd_), magic_(other.magic_),
      path_(std::move(other.path_))
{
    other.fd_ = -1;
}

FramedAppender &
FramedAppender::operator=(FramedAppender &&other) noexcept
{
    if (this != &other) {
        close();
        fd_ = other.fd_;
        magic_ = other.magic_;
        path_ = std::move(other.path_);
        other.fd_ = -1;
    }
    return *this;
}

std::optional<Error>
FramedAppender::append(uint32_t kind,
                       const std::vector<uint8_t> &payload,
                       bool sync,
                       std::optional<uint32_t> corrupt_payload_bit)
{
    fvc_assert(valid(), "append on closed FramedAppender");
    std::vector<uint8_t> frame =
        frameBytes(magic_, kind, payload, corrupt_payload_bit);
    if (::write(fd_, frame.data(), frame.size()) !=
        static_cast<ssize_t>(frame.size())) {
        return Error{ErrorCode::Io,
                     std::string("record write failed: ") +
                         std::strerror(errno),
                     path_};
    }
    if (sync && ::fsync(fd_) != 0) {
        return Error{ErrorCode::Io,
                     std::string("fsync failed: ") +
                         std::strerror(errno),
                     path_};
    }
    return std::nullopt;
}

void
FramedAppender::close()
{
    if (fd_ >= 0) {
        ::close(fd_);
        fd_ = -1;
    }
}

std::optional<Error>
writeFramedFileAtomic(const std::string &path, uint32_t magic,
                      const std::vector<Frame> &frames)
{
    const std::string tmp =
        path + ".tmp." + std::to_string(::getpid());
    int fd =
        ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd < 0) {
        return Error{ErrorCode::Io,
                     std::string("open failed: ") +
                         std::strerror(errno),
                     tmp};
    }
    std::vector<uint8_t> bytes;
    for (const auto &frame : frames) {
        std::vector<uint8_t> encoded =
            frameBytes(magic, frame.kind, frame.payload,
                       std::nullopt);
        bytes.insert(bytes.end(), encoded.begin(), encoded.end());
    }
    bool ok = bytes.empty() ||
              ::write(fd, bytes.data(), bytes.size()) ==
                  static_cast<ssize_t>(bytes.size());
    ok = ok && ::fsync(fd) == 0;
    ::close(fd);
    if (!ok) {
        ::unlink(tmp.c_str());
        return Error{ErrorCode::Io,
                     std::string("atomic write failed: ") +
                         std::strerror(errno),
                     tmp};
    }
    if (::rename(tmp.c_str(), path.c_str()) != 0) {
        int err = errno;
        ::unlink(tmp.c_str());
        return Error{ErrorCode::Io,
                     std::string("rename failed: ") +
                         std::strerror(err),
                     path};
    }
    return std::nullopt;
}

} // namespace fvc::util
