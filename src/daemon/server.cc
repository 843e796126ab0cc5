#include "daemon/server.hh"

#include <algorithm>
#include <cerrno>
#include <cstring>

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "fabric/cell.hh"
#include "fabric/queue.hh"
#include "resultcache/repository.hh"
#include "util/logging.hh"

namespace fvc::daemon {

namespace {

/** Fill @p addr with @p path; false when the path cannot fit (a
 * sockaddr_un limitation, not ours). */
bool
sockaddrFor(const std::string &path, sockaddr_un &addr)
{
    if (path.size() >= sizeof(addr.sun_path))
        return false;
    std::memset(&addr, 0, sizeof(addr));
    addr.sun_family = AF_UNIX;
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    return true;
}

/** True when something accepts connections on @p path right now. */
bool
daemonAnswers(const std::string &path)
{
    sockaddr_un addr;
    if (!sockaddrFor(path, addr))
        return false;
    int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0)
        return false;
    const bool up =
        ::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                  sizeof(addr)) == 0;
    ::close(fd);
    return up;
}

} // namespace

/** One client connection's state. */
struct Server::Conn
{
    int fd = -1;
    uint64_t id = 0;
    bool said_hello = false;
    bool wants_shutdown_ack = false;
    FrameBuffer frames;
};

/** One SubmitCells frame awaiting the batch dispatch. */
struct Server::Pending
{
    uint64_t conn_id = 0;
    std::vector<fabric::CellSpec> cells;
};

util::Expected<Server>
Server::create(const Options &options)
{
    Server server;
    server.path_ = options.socket_path.empty()
                       ? fvc::daemon::socketPath()
                       : options.socket_path;
    server.batch_window_ms_ = options.batch_window_ms;

    sockaddr_un addr;
    if (!sockaddrFor(server.path_, addr)) {
        return util::Error{util::ErrorCode::Invalid,
                           "socket path too long for sockaddr_un",
                           server.path_};
    }
    int fd = ::socket(AF_UNIX,
                      SOCK_STREAM | SOCK_CLOEXEC | SOCK_NONBLOCK, 0);
    if (fd < 0) {
        return util::Error{util::ErrorCode::Io,
                           std::string("socket failed: ") +
                               std::strerror(errno),
                           server.path_};
    }
    if (::bind(fd, reinterpret_cast<sockaddr *>(&addr),
               sizeof(addr)) != 0) {
        if (errno != EADDRINUSE) {
            int err = errno;
            ::close(fd);
            return util::Error{util::ErrorCode::Io,
                               std::string("bind failed: ") +
                                   std::strerror(err),
                               server.path_};
        }
        // The path exists. A live daemon answers a connect probe
        // and must not be displaced; a stale file from a dead pid
        // refuses it, and is safe to clean and rebind.
        if (daemonAnswers(server.path_)) {
            ::close(fd);
            return util::Error{util::ErrorCode::Invalid,
                               "a daemon is already serving this "
                               "socket",
                               server.path_};
        }
        fvc_warn("removing stale daemon socket ", server.path_);
        ::unlink(server.path_.c_str());
        if (::bind(fd, reinterpret_cast<sockaddr *>(&addr),
                   sizeof(addr)) != 0) {
            int err = errno;
            ::close(fd);
            return util::Error{util::ErrorCode::Io,
                               std::string("rebind failed: ") +
                                   std::strerror(err),
                               server.path_};
        }
    }
    if (::listen(fd, 64) != 0) {
        int err = errno;
        ::close(fd);
        ::unlink(server.path_.c_str());
        return util::Error{util::ErrorCode::Io,
                           std::string("listen failed: ") +
                               std::strerror(err),
                           server.path_};
    }
    if (::pipe2(server.stop_pipe_, O_CLOEXEC | O_NONBLOCK) != 0) {
        int err = errno;
        ::close(fd);
        ::unlink(server.path_.c_str());
        return util::Error{util::ErrorCode::Io,
                           std::string("pipe failed: ") +
                               std::strerror(err),
                           server.path_};
    }
    server.listen_fd_ = fd;
    server.counters_.pid = static_cast<uint32_t>(::getpid());
    return server;
}

Server::~Server()
{
    for (auto &conn : conns_) {
        if (conn->fd >= 0)
            ::close(conn->fd);
    }
    if (listen_fd_ >= 0) {
        ::close(listen_fd_);
        ::unlink(path_.c_str());
    }
    for (int fd : stop_pipe_) {
        if (fd >= 0)
            ::close(fd);
    }
}

Server::Server(Server &&other) noexcept { *this = std::move(other); }

Server &
Server::operator=(Server &&other) noexcept
{
    if (this != &other) {
        this->~Server();
        listen_fd_ = other.listen_fd_;
        stop_pipe_[0] = other.stop_pipe_[0];
        stop_pipe_[1] = other.stop_pipe_[1];
        path_ = std::move(other.path_);
        batch_window_ms_ = other.batch_window_ms_;
        batch_deadline_ms_ = other.batch_deadline_ms_;
        draining_ = other.draining_;
        conns_ = std::move(other.conns_);
        pending_ = std::move(other.pending_);
        counters_ = other.counters_;
        other.listen_fd_ = -1;
        other.stop_pipe_[0] = -1;
        other.stop_pipe_[1] = -1;
        other.conns_.clear();
        other.pending_.clear();
    }
    return *this;
}

void
Server::requestStop()
{
    const char byte = 's';
    // A failed write (full pipe) still means a stop is pending.
    [[maybe_unused]] ssize_t n =
        ::write(stop_pipe_[1], &byte, 1);
}

void
Server::acceptClients()
{
    while (true) {
        int fd = ::accept4(listen_fd_, nullptr, nullptr,
                           SOCK_CLOEXEC);
        if (fd < 0) {
            if (errno == EINTR)
                continue;
            return; // EAGAIN: drained the backlog.
        }
        static uint64_t next_id = 1;
        auto conn = std::make_unique<Conn>();
        conn->fd = fd;
        conn->id = next_id++;
        conns_.push_back(std::move(conn));
        ++counters_.connections;
    }
}

void
Server::closeConn(Conn &conn)
{
    if (conn.fd >= 0) {
        ::close(conn.fd);
        conn.fd = -1;
    }
}

bool
Server::handleFrame(Conn &conn, const util::Frame &frame)
{
    switch (frame.kind) {
      case kKindHello: {
        auto hello = decodeHello(frame.payload);
        if (!hello.ok()) {
            ++counters_.malformed_frames;
            fvc_warn("daemon: closing client (",
                     hello.error().describe(), ")");
            return false;
        }
        if (hello.value().version != kProtocolVersion) {
            ++counters_.malformed_frames;
            fvc_warn("daemon: closing client speaking protocol v",
                     hello.value().version, " (this daemon is v",
                     kProtocolVersion, ")");
            return false;
        }
        conn.said_hello = true;
        Hello ack;
        ack.pid = counters_.pid;
        return !sendFrame(conn.fd, kKindHelloAck,
                          encodeHello(ack));
      }
      case kKindSubmitCells: {
        if (!conn.said_hello) {
            ++counters_.malformed_frames;
            fvc_warn("daemon: closing client that submitted before "
                     "hello");
            return false;
        }
        auto cells = decodeSubmitCells(frame.payload);
        if (!cells.ok()) {
            ++counters_.malformed_frames;
            fvc_warn("daemon: closing client (",
                     cells.error().describe(), ")");
            return false;
        }
        if (pending_.empty()) {
            batch_deadline_ms_ =
                fabric::monotonicMs() + batch_window_ms_;
        }
        ++counters_.submits;
        counters_.cells_received += cells.value().size();
        pending_.push_back(
            Pending{conn.id, std::move(cells.value())});
        return true;
      }
      case kKindPing: {
        auto token = decodePing(frame.payload);
        if (!token.ok()) {
            ++counters_.malformed_frames;
            return false;
        }
        return !sendFrame(conn.fd, kKindPong,
                          encodePing(token.value()));
      }
      case kKindStats:
        return !sendFrame(conn.fd, kKindStatsReply,
                          encodeDaemonStats(statsSnapshot()));
      case kKindShutdown:
        draining_ = true;
        conn.wants_shutdown_ack = true;
        return true;
      default:
        // Unknown kinds are a version skew we did not negotiate:
        // the stream is well-framed but the conversation is not.
        ++counters_.malformed_frames;
        fvc_warn("daemon: closing client sending unknown frame "
                 "kind ", frame.kind);
        return false;
    }
}

void
Server::readClient(Conn &conn)
{
    uint8_t buffer[64 * 1024];
    const ssize_t n = ::recv(conn.fd, buffer, sizeof(buffer), 0);
    if (n < 0) {
        if (errno == EINTR || errno == EAGAIN)
            return;
        closeConn(conn);
        return;
    }
    if (n == 0) {
        closeConn(conn);
        return;
    }
    conn.frames.feed(buffer, static_cast<size_t>(n));
    while (auto frame = conn.frames.next()) {
        if (!handleFrame(conn, *frame)) {
            closeConn(conn);
            return;
        }
        if (conn.fd < 0)
            return;
    }
    if (conn.frames.poisoned()) {
        // The one-frame blast radius: this connection dies with a
        // named reason; every other client is untouched.
        ++counters_.malformed_frames;
        fvc_warn("daemon: closing client (",
                 conn.frames.poisonReason(), ")");
        closeConn(conn);
    }
}

DaemonStats
Server::statsSnapshot() const
{
    DaemonStats stats = counters_;
    const auto &repo = resultcache::ResultRepository::shared();
    stats.store_hits = repo.storeHits();
    stats.dedups = repo.dedups();
    stats.simulations = repo.simulations();
    stats.store_writes = repo.storeWrites();
    return stats;
}

void
Server::dispatchBatch()
{
    struct Slice
    {
        uint64_t conn_id;
        size_t begin;
        size_t count;
    };
    std::vector<Slice> slices;
    std::vector<fabric::CellSpec> all;
    for (auto &pending : pending_) {
        slices.push_back(Slice{pending.conn_id, all.size(),
                               pending.cells.size()});
        all.insert(all.end(),
                   std::make_move_iterator(pending.cells.begin()),
                   std::make_move_iterator(pending.cells.end()));
    }
    pending_.clear();
    ++counters_.batches;

    // One engine dispatch for every submission in the window: the
    // repository collapses duplicate fingerprints across clients
    // and serves store hits without simulating (its counters are
    // the dedup proof the Stats frame exposes).
    auto results = resultcache::ResultRepository::shared().runCells(
        all, "daemon batch");

    for (const auto &slice : slices) {
        Conn *conn = nullptr;
        for (auto &candidate : conns_) {
            if (candidate->id == slice.conn_id &&
                candidate->fd >= 0) {
                conn = candidate.get();
                break;
            }
        }
        // A client that died mid-batch wasted nothing: the results
        // are published to the store for the next asker.
        for (size_t i = 0; conn && i < slice.count; ++i) {
            ResultFrame rf;
            rf.index = static_cast<uint32_t>(i);
            rf.fingerprint =
                fabric::cellFingerprint(all[slice.begin + i]);
            if (const auto &stats = results[slice.begin + i]) {
                rf.stats = *stats;
            } else {
                rf.status = 1;
            }
            if (sendFrame(conn->fd, kKindResult,
                          encodeResultFrame(rf))) {
                closeConn(*conn);
                conn = nullptr;
                break;
            }
            ++counters_.results_sent;
        }
        if (conn && sendFrame(conn->fd, kKindBatchDone,
                              encodeBatchDone(slice.count))) {
            closeConn(*conn);
        }
    }
}

void
Server::run()
{
    fvc_assert(valid(), "Server::run() on an invalid server");
    while (true) {
        // A pending batch bounds the poll by its window deadline;
        // a drain request bounds it at zero so the loop falls
        // through to the final dispatch.
        int timeout = -1;
        if (draining_) {
            timeout = 0;
        } else if (!pending_.empty()) {
            const uint64_t now = fabric::monotonicMs();
            timeout = batch_deadline_ms_ > now
                          ? static_cast<int>(
                                batch_deadline_ms_ - now)
                          : 0;
        }

        std::vector<pollfd> fds;
        fds.push_back(pollfd{stop_pipe_[0], POLLIN, 0});
        fds.push_back(pollfd{listen_fd_, POLLIN, 0});
        for (const auto &conn : conns_)
            fds.push_back(pollfd{conn->fd, POLLIN, 0});

        const int ready =
            ::poll(fds.data(),
                   static_cast<nfds_t>(fds.size()), timeout);
        if (ready < 0 && errno != EINTR) {
            fvc_warn("daemon: poll failed: ",
                     std::strerror(errno));
            return;
        }

        if (fds[0].revents & POLLIN) {
            char drain[16];
            while (::read(stop_pipe_[0], drain, sizeof(drain)) >
                   0) {
            }
            draining_ = true;
        }
        if (fds[1].revents & POLLIN)
            acceptClients();
        for (size_t i = 2; i < fds.size(); ++i) {
            if (fds[i].revents & (POLLIN | POLLHUP | POLLERR))
                readClient(*conns_[i - 2]);
        }
        conns_.erase(
            std::remove_if(conns_.begin(), conns_.end(),
                           [](const std::unique_ptr<Conn> &conn) {
                               return conn->fd < 0;
                           }),
            conns_.end());

        if (!pending_.empty() &&
            (draining_ ||
             fabric::monotonicMs() >= batch_deadline_ms_)) {
            dispatchBatch();
        }

        if (draining_ && pending_.empty()) {
            // Drained: acknowledge every requester, then exit. The
            // destructor unlinks the socket file.
            for (auto &conn : conns_) {
                if (conn->fd >= 0 && conn->wants_shutdown_ack) {
                    (void)sendFrame(conn->fd, kKindShutdownAck,
                                    {});
                }
            }
            return;
        }
    }
}

} // namespace fvc::daemon
