#include "daemon/client.hh"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "harness/report.hh"
#include "resultcache/repository.hh"
#include "util/knobs.hh"
#include "util/logging.hh"

namespace fvc::daemon {

namespace {

/** Cells per SubmitCells frame: a cell encodes to well under 256
 * bytes, so this stays comfortably inside kMaxFramePayloadBytes.
 * Larger sweeps go out as sequential chunks; the store dedups
 * across them, so chunking never costs a duplicate simulation. */
constexpr size_t kMaxCellsPerSubmit = 3000;

/** Connect/reconnect attempts when Options::retries is 0. */
constexpr unsigned kDefaultRetries = 3;

/** Per-attempt timeout and backoff ceiling when
 * Options::timeout_ms is 0. */
constexpr uint64_t kDefaultTimeoutMs = 2000;

util::Error
ioError(const std::string &what, const std::string &path)
{
    return {util::ErrorCode::Io, what, path};
}

/** Report the FAILED cells of a reply served by daemon @p pid the
 * way an in-process sweep reports its failed jobs: a table, or a
 * fatal error under FVC_STRICT=1. */
void
reportServedFailures(
    const std::vector<std::optional<fabric::CellStats>> &served,
    uint32_t pid, const std::string &what)
{
    std::vector<harness::JobFailure> failures;
    for (size_t i = 0; i < served.size(); ++i) {
        if (!served[i]) {
            failures.push_back(
                {i, "failed in fvc_sweepd pid " + std::to_string(pid) +
                        " (its log names the error)"});
        }
    }
    if (!failures.empty())
        harness::reportSweepFailures(failures, served.size(), what);
}

} // namespace

DaemonMode
daemonMode()
{
    return util::knobChoice<DaemonMode>("FVC_DAEMON",
                                        {{"auto", DaemonMode::Auto},
                                         {"on", DaemonMode::On},
                                         {"off", DaemonMode::Off}},
                                        DaemonMode::Auto);
}

const char *
daemonModeName(DaemonMode mode)
{
    switch (mode) {
      case DaemonMode::Auto: return "auto";
      case DaemonMode::On: return "on";
      case DaemonMode::Off: return "off";
    }
    fvc_panic("unreachable daemon mode");
}

util::Expected<Client>
Client::connect(const Options &options)
{
    Client client;
    client.path_ = options.socket_path.empty()
                       ? socketPath()
                       : options.socket_path;
    client.retries_ =
        options.retries ? options.retries : kDefaultRetries;
    client.timeout_ms_ = options.timeout_ms ? options.timeout_ms
                                            : kDefaultTimeoutMs;
    if (auto err = client.reconnect())
        return *err;
    return client;
}

Client::~Client() { closeSocket(); }

Client::Client(Client &&other) noexcept { *this = std::move(other); }

Client &
Client::operator=(Client &&other) noexcept
{
    if (this != &other) {
        closeSocket();
        fd_ = other.fd_;
        daemon_pid_ = other.daemon_pid_;
        path_ = std::move(other.path_);
        retries_ = other.retries_;
        timeout_ms_ = other.timeout_ms_;
        frames_ = std::move(other.frames_);
        other.fd_ = -1;
    }
    return *this;
}

void
Client::closeSocket()
{
    if (fd_ >= 0) {
        ::close(fd_);
        fd_ = -1;
    }
    frames_ = FrameBuffer();
}

std::optional<util::Error>
Client::connectOnce()
{
    closeSocket();
    sockaddr_un addr;
    if (path_.size() >= sizeof(addr.sun_path)) {
        return util::Error{util::ErrorCode::Invalid,
                           "socket path too long for sockaddr_un",
                           path_};
    }
    std::memset(&addr, 0, sizeof(addr));
    addr.sun_family = AF_UNIX;
    std::memcpy(addr.sun_path, path_.c_str(), path_.size() + 1);
    int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0) {
        return ioError(std::string("socket failed: ") +
                           std::strerror(errno),
                       path_);
    }
    if (::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                  sizeof(addr)) != 0) {
        int err = errno;
        ::close(fd);
        return ioError(std::string("connect failed: ") +
                           std::strerror(err),
                       path_);
    }
    fd_ = fd;
    Hello hello;
    hello.pid = static_cast<uint32_t>(::getpid());
    if (auto err = sendFrame(fd_, kKindHello, encodeHello(hello))) {
        closeSocket();
        return err;
    }
    auto ack = readFrame(timeout_ms_);
    if (!ack.ok()) {
        closeSocket();
        return ack.error();
    }
    if (ack.value().kind != kKindHelloAck) {
        closeSocket();
        return util::Error{util::ErrorCode::Format,
                           "expected hello-ack, got frame kind " +
                               std::to_string(ack.value().kind),
                           path_};
    }
    auto decoded = decodeHello(ack.value().payload);
    if (!decoded.ok()) {
        closeSocket();
        return decoded.error();
    }
    if (decoded.value().version != kProtocolVersion) {
        closeSocket();
        return util::Error{util::ErrorCode::Format,
                           "daemon speaks protocol v" +
                               std::to_string(
                                   decoded.value().version) +
                               ", this client is v" +
                               std::to_string(kProtocolVersion),
                           path_};
    }
    daemon_pid_ = decoded.value().pid;
    return std::nullopt;
}

std::optional<util::Error>
Client::reconnect()
{
    std::optional<util::Error> last;
    for (unsigned attempt = 0; attempt < retries_; ++attempt) {
        if (attempt > 0) {
            // Linear backoff bounded by the configured timeout: a
            // restarting daemon needs a moment to rebind.
            const uint64_t wait =
                std::min<uint64_t>(100 * attempt, timeout_ms_);
            std::this_thread::sleep_for(
                std::chrono::milliseconds(wait));
        }
        last = connectOnce();
        if (!last)
            return std::nullopt;
    }
    return last;
}

util::Expected<util::Frame>
Client::readFrame(uint64_t timeout_ms)
{
    while (true) {
        if (auto frame = frames_.next())
            return *frame;
        if (frames_.poisoned()) {
            return util::Error{util::ErrorCode::Corrupt,
                               "daemon reply stream: " +
                                   frames_.poisonReason(),
                               path_};
        }
        if (timeout_ms > 0) {
            pollfd pfd{fd_, POLLIN, 0};
            const int ready =
                ::poll(&pfd, 1, static_cast<int>(timeout_ms));
            if (ready == 0) {
                return util::Error{util::ErrorCode::Timeout,
                                   "daemon reply timed out after " +
                                       std::to_string(timeout_ms) +
                                       " ms",
                                   path_};
            }
            if (ready < 0 && errno != EINTR) {
                return ioError(std::string("poll failed: ") +
                                   std::strerror(errno),
                               path_);
            }
        }
        uint8_t buffer[64 * 1024];
        const ssize_t n = ::recv(fd_, buffer, sizeof(buffer), 0);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return ioError(std::string("recv failed: ") +
                               std::strerror(errno),
                           path_);
        }
        if (n == 0) {
            return ioError("daemon closed the connection", path_);
        }
        frames_.feed(buffer, static_cast<size_t>(n));
    }
}

util::Expected<std::vector<std::optional<fabric::CellStats>>>
Client::submit(const std::vector<fabric::CellSpec> &cells)
{
    std::vector<std::optional<fabric::CellStats>> out;
    out.reserve(cells.size());
    for (size_t begin = 0; begin < cells.size();
         begin += kMaxCellsPerSubmit) {
        const size_t count = std::min(kMaxCellsPerSubmit,
                                      cells.size() - begin);
        const std::vector<fabric::CellSpec> chunk(
            cells.begin() + static_cast<ptrdiff_t>(begin),
            cells.begin() + static_cast<ptrdiff_t>(begin + count));
        std::vector<std::optional<fabric::CellStats>> slots(count);

        // The whole request retries as a unit: a daemon restart
        // mid-batch drops the connection, and resubmitting is safe
        // because results are pure and store-deduped.
        std::optional<util::Error> failure;
        for (unsigned attempt = 0; attempt < retries_; ++attempt) {
            failure.reset();
            if (!valid()) {
                if (auto err = reconnect()) {
                    failure = err;
                    break;
                }
            }
            if (auto err = sendFrame(fd_, kKindSubmitCells,
                                     encodeSubmitCells(chunk))) {
                failure = err;
                closeSocket();
                continue;
            }
            std::fill(slots.begin(), slots.end(), std::nullopt);
            size_t received = 0;
            while (true) {
                // No timeout: a big batch legitimately simulates
                // for minutes. A daemon death surfaces as EOF.
                auto frame = readFrame(0);
                if (!frame.ok()) {
                    failure = frame.error();
                    closeSocket();
                    break;
                }
                if (frame.value().kind == kKindResult) {
                    auto rf =
                        decodeResultFrame(frame.value().payload);
                    if (!rf.ok() ||
                        rf.value().index >= slots.size()) {
                        failure = util::Error{
                            util::ErrorCode::Corrupt,
                            "daemon sent an invalid result frame",
                            path_};
                        closeSocket();
                        break;
                    }
                    if (rf.value().status == 0)
                        slots[rf.value().index] =
                            rf.value().stats;
                    ++received;
                    continue;
                }
                if (frame.value().kind == kKindBatchDone) {
                    auto done =
                        decodeBatchDone(frame.value().payload);
                    if (!done.ok() || done.value() != count ||
                        received != count) {
                        failure = util::Error{
                            util::ErrorCode::Corrupt,
                            "daemon batch-done count mismatch",
                            path_};
                        closeSocket();
                    }
                    break;
                }
                failure = util::Error{
                    util::ErrorCode::Format,
                    "unexpected frame kind " +
                        std::to_string(frame.value().kind) +
                        " inside a batch reply",
                    path_};
                closeSocket();
                break;
            }
            if (!failure)
                break;
        }
        if (failure)
            return *failure;
        out.insert(out.end(),
                   std::make_move_iterator(slots.begin()),
                   std::make_move_iterator(slots.end()));
    }
    return out;
}

util::Expected<uint64_t>
Client::ping(uint64_t token)
{
    if (!valid()) {
        if (auto err = reconnect())
            return *err;
    }
    if (auto err = sendFrame(fd_, kKindPing, encodePing(token)))
        return *err;
    auto frame = readFrame(timeout_ms_);
    if (!frame.ok())
        return frame.error();
    if (frame.value().kind != kKindPong) {
        return util::Error{util::ErrorCode::Format,
                           "expected pong, got frame kind " +
                               std::to_string(frame.value().kind),
                           path_};
    }
    return decodePing(frame.value().payload);
}

util::Expected<DaemonStats>
Client::stats()
{
    if (!valid()) {
        if (auto err = reconnect())
            return *err;
    }
    if (auto err = sendFrame(fd_, kKindStats, {}))
        return *err;
    auto frame = readFrame(timeout_ms_);
    if (!frame.ok())
        return frame.error();
    if (frame.value().kind != kKindStatsReply) {
        return util::Error{util::ErrorCode::Format,
                           "expected stats-reply, got frame kind " +
                               std::to_string(frame.value().kind),
                           path_};
    }
    return decodeDaemonStats(frame.value().payload);
}

std::optional<util::Error>
Client::shutdownDaemon()
{
    if (!valid()) {
        if (auto err = reconnect())
            return err;
    }
    if (auto err = sendFrame(fd_, kKindShutdown, {}))
        return err;
    auto frame = readFrame(timeout_ms_);
    if (!frame.ok()) {
        // EOF after the request still means the daemon exited; the
        // ack only races the close when the kernel drops it.
        if (frame.error().code == util::ErrorCode::Io)
            return std::nullopt;
        return frame.error();
    }
    if (frame.value().kind != kKindShutdownAck) {
        return util::Error{util::ErrorCode::Format,
                           "expected shutdown-ack, got frame kind " +
                               std::to_string(frame.value().kind),
                           path_};
    }
    return std::nullopt;
}

std::vector<std::optional<fabric::CellStats>>
runCells(const std::vector<fabric::CellSpec> &cells,
         const std::string &what)
{
    DaemonMode mode = daemonMode();
    // A reply cannot say which cells the daemon simulated, so a warm
    // expectation is checked in-process, against this client's own
    // store.
    if (mode != DaemonMode::Off && resultcache::expectWarm()) {
        if (mode == DaemonMode::On) {
            fvc_fatal("FVC_DAEMON=on cannot serve ", what,
                      " under FVC_RESULT_EXPECT_WARM=1: a served "
                      "reply cannot show that no cell was simulated; "
                      "the flag holds in-process only");
        }
        mode = DaemonMode::Off;
    }
    if (mode != DaemonMode::Off) {
        Client::Options options;
        // Auto probes once and falls back fast; On spends the full
        // retry budget before declaring the daemon unreachable.
        if (mode == DaemonMode::Auto)
            options.retries = 1;
        auto client = Client::connect(options);
        if (client.ok()) {
            auto served = client.value().submit(cells);
            if (served.ok()) {
                reportServedFailures(served.value(),
                                     client.value().daemonPid(), what);
                return std::move(served.value());
            }
            if (mode == DaemonMode::On) {
                fvc_fatal("FVC_DAEMON=on but serving ", what,
                          " failed: ",
                          served.error().describe());
            }
            fvc_warn("daemon serve of ", what, " failed (",
                     served.error().describe(),
                     "); falling back to in-process");
        } else if (mode == DaemonMode::On) {
            fvc_fatal("FVC_DAEMON=on but no daemon is reachable: ",
                      client.error().describe());
        }
    }
    return resultcache::runCells(cells, what);
}

} // namespace fvc::daemon
