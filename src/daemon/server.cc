#include "daemon/server.hh"

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <exception>
#include <thread>

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "fabric/cell.hh"
#include "fabric/queue.hh"
#include "resultcache/repository.hh"
#include "util/framed.hh"
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

/** Read a non-blocking pipe empty. */
void
drainPipe(int fd)
{
    char bytes[16];
    while (::read(fd, bytes, sizeof(bytes)) > 0) {
    }
}

} // namespace

/** One client connection's state. */
struct Server::Conn
{
    int fd = -1;
    uint64_t id = 0;
    bool said_hello = false;
    bool wants_shutdown_ack = false;
    /** Submissions pending or simulating; while any is, the next
     * one queues behind it, so replies keep submission order. */
    size_t queued = 0;
    FrameBuffer frames;
};

/** One SubmitCells frame awaiting a batch. */
struct Server::Pending
{
    uint64_t conn_id = 0;
    std::vector<fabric::CellSpec> cells;
};

/** The batch on its thread. The thread only reads the submissions
 * and only writes the results; the poll loop touches neither until
 * it has joined the thread. */
struct Server::Batch
{
    std::vector<Pending> submissions;
    /** One slot per cell, the submissions' cells in order. */
    std::vector<std::optional<fabric::CellStats>> results;
    std::thread thread;
};

util::Expected<std::unique_ptr<Server>>
Server::create(const Options &options)
{
    // Strict mode makes a failed sweep fatal, and here that would
    // take down the daemon and every client's batch. A client that
    // sets it gets the same effect from its own report of the
    // FAILED cells it is served (daemon::runCells).
    if (util::strictMode()) {
        return util::Error{util::ErrorCode::Invalid,
                           "FVC_STRICT=1 is a client-side setting; "
                           "set it for the bench that submits, not "
                           "for the daemon",
                           ""};
    }
    std::unique_ptr<Server> server(new Server);
    server->path_ = options.socket_path.empty()
                        ? fvc::daemon::socketPath()
                        : options.socket_path;
    server->batch_window_ms_ = options.batch_window_ms;

    sockaddr_un addr;
    if (!sockaddrFor(server->path_, addr)) {
        return util::Error{util::ErrorCode::Invalid,
                           "socket path too long for sockaddr_un",
                           server->path_};
    }
    int fd = ::socket(AF_UNIX,
                      SOCK_STREAM | SOCK_CLOEXEC | SOCK_NONBLOCK, 0);
    if (fd < 0) {
        return util::Error{util::ErrorCode::Io,
                           std::string("socket failed: ") +
                               std::strerror(errno),
                           server->path_};
    }
    if (::bind(fd, reinterpret_cast<sockaddr *>(&addr),
               sizeof(addr)) != 0) {
        if (errno != EADDRINUSE) {
            int err = errno;
            ::close(fd);
            return util::Error{util::ErrorCode::Io,
                               std::string("bind failed: ") +
                                   std::strerror(err),
                               server->path_};
        }
        // The path exists. A live daemon answers a connect probe
        // and must not be displaced; a stale file from a dead pid
        // refuses it, and is safe to clean and rebind.
        if (daemonAnswers(server->path_)) {
            ::close(fd);
            return util::Error{util::ErrorCode::Invalid,
                               "a daemon is already serving this "
                               "socket",
                               server->path_};
        }
        fvc_warn("removing stale daemon socket ", server->path_);
        ::unlink(server->path_.c_str());
        if (::bind(fd, reinterpret_cast<sockaddr *>(&addr),
                   sizeof(addr)) != 0) {
            int err = errno;
            ::close(fd);
            return util::Error{util::ErrorCode::Io,
                               std::string("rebind failed: ") +
                                   std::strerror(err),
                               server->path_};
        }
    }
    if (::listen(fd, 64) != 0) {
        int err = errno;
        ::close(fd);
        ::unlink(server->path_.c_str());
        return util::Error{util::ErrorCode::Io,
                           std::string("listen failed: ") +
                               std::strerror(err),
                           server->path_};
    }
    if (::pipe2(server->stop_pipe_, O_CLOEXEC | O_NONBLOCK) != 0 ||
        ::pipe2(server->done_pipe_, O_CLOEXEC | O_NONBLOCK) != 0) {
        int err = errno;
        ::close(fd);
        ::unlink(server->path_.c_str());
        return util::Error{util::ErrorCode::Io,
                           std::string("pipe failed: ") +
                               std::strerror(err),
                           server->path_};
    }
    server->listen_fd_ = fd;
    server->counters_.pid = static_cast<uint32_t>(::getpid());
    return server;
}

Server::~Server()
{
    if (batch_)
        batch_->thread.join();
    for (auto &conn : conns_) {
        if (conn->fd >= 0)
            ::close(conn->fd);
    }
    if (listen_fd_ >= 0) {
        ::close(listen_fd_);
        ::unlink(path_.c_str());
    }
    for (int fd : {stop_pipe_[0], stop_pipe_[1], done_pipe_[0],
                   done_pipe_[1]}) {
        if (fd >= 0)
            ::close(fd);
    }
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
        auto conn = std::make_unique<Conn>();
        conn->fd = fd;
        conn->id = next_conn_id_++;
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
        return submit(conn, std::move(cells.value()));
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

bool
Server::submit(Conn &conn, std::vector<fabric::CellSpec> cells)
{
    ++counters_.submits;
    counters_.cells_received += cells.size();
    if (conn.queued == 0) {
        if (auto stored = resultcache::ResultRepository::shared()
                              .serveStored(cells)) {
            const std::vector<std::optional<fabric::CellStats>>
                results(stored->begin(), stored->end());
            return reply(conn, cells, results);
        }
    }
    if (pending_.empty())
        batch_deadline_ms_ = fabric::monotonicMs() + batch_window_ms_;
    ++conn.queued;
    pending_.push_back(Pending{conn.id, std::move(cells)});
    return true;
}

bool
Server::reply(Conn &conn, std::span<const fabric::CellSpec> cells,
              std::span<const std::optional<fabric::CellStats>>
                  results)
{
    std::vector<uint8_t> bytes;
    const auto append = [&bytes](uint32_t kind,
                                 const std::vector<uint8_t> &payload) {
        const auto frame = util::frameBytes(kDaemonMagic, kind, payload);
        bytes.insert(bytes.end(), frame.begin(), frame.end());
    };
    for (size_t i = 0; i < cells.size(); ++i) {
        ResultFrame rf;
        rf.index = static_cast<uint32_t>(i);
        rf.fingerprint = fabric::cellFingerprint(cells[i]);
        if (results[i])
            rf.stats = *results[i];
        else
            rf.status = 1;
        append(kKindResult, encodeResultFrame(rf));
    }
    append(kKindBatchDone, encodeBatchDone(cells.size()));
    if (sendBytes(conn.fd, bytes))
        return false;
    counters_.results_sent += cells.size();
    return true;
}

void
Server::startBatch()
{
    batch_ = std::make_unique<Batch>();
    batch_->submissions = std::move(pending_);
    pending_.clear();
    ++counters_.batches;

    // One engine dispatch for every submission in the window: the
    // repository collapses duplicate fingerprints across clients
    // and serves store hits without simulating (its counters are
    // the dedup proof the Stats frame exposes).
    std::vector<fabric::CellSpec> cells;
    for (const auto &pending : batch_->submissions)
        cells.insert(cells.end(), pending.cells.begin(),
                     pending.cells.end());
    batch_->thread = std::thread(
        [batch = batch_.get(), done = done_pipe_[1],
         cells = std::move(cells)] {
            try {
                batch->results =
                    resultcache::ResultRepository::shared().runCells(
                        cells, "daemon batch");
            } catch (const std::exception &e) {
                // Never a dead daemon: the batch's cells are FAILED.
                fvc_warn("daemon: batch failed: ", e.what());
                batch->results.assign(cells.size(), std::nullopt);
            }
            const char byte = 'b';
            [[maybe_unused]] ssize_t n = ::write(done, &byte, 1);
        });
}

void
Server::finishBatch()
{
    batch_->thread.join();
    std::span<const std::optional<fabric::CellStats>> results =
        batch_->results;
    for (const auto &pending : batch_->submissions) {
        const size_t count = pending.cells.size();
        auto it = std::find_if(
            conns_.begin(), conns_.end(), [&](const auto &conn) {
                return conn->id == pending.conn_id && conn->fd >= 0;
            });
        // A client that died mid-batch wasted nothing: the results
        // are published to the store for the next asker.
        if (it != conns_.end()) {
            --(*it)->queued;
            if (!reply(**it, pending.cells, results.first(count)))
                closeConn(**it);
        }
        results = results.subspan(count);
    }
    batch_.reset();
}

void
Server::run()
{
    while (true) {
        // Pending submissions bound the poll by their window's
        // deadline, or by zero once draining. While a batch
        // simulates they wait for it, and its done byte wakes the
        // loop.
        int timeout = -1;
        if (!batch_ && !pending_.empty()) {
            const uint64_t now = fabric::monotonicMs();
            timeout = draining_ || batch_deadline_ms_ <= now
                          ? 0
                          : static_cast<int>(batch_deadline_ms_ - now);
        }

        // A draining loop reads no client: the work it has taken
        // finishes, and nothing new starts.
        std::vector<pollfd> fds;
        fds.push_back(pollfd{stop_pipe_[0], POLLIN, 0});
        fds.push_back(pollfd{done_pipe_[0], POLLIN, 0});
        if (!draining_) {
            fds.push_back(pollfd{listen_fd_, POLLIN, 0});
            for (const auto &conn : conns_)
                fds.push_back(pollfd{conn->fd, POLLIN, 0});
        }

        const int ready =
            ::poll(fds.data(),
                   static_cast<nfds_t>(fds.size()), timeout);
        if (ready < 0 && errno != EINTR) {
            fvc_warn("daemon: poll failed: ",
                     std::strerror(errno));
            return;
        }

        if (fds[0].revents & POLLIN) {
            drainPipe(stop_pipe_[0]);
            draining_ = true;
        }
        if (fds[1].revents & POLLIN) {
            drainPipe(done_pipe_[0]);
            finishBatch();
        }
        if (fds.size() > 2 && (fds[2].revents & POLLIN))
            acceptClients();
        for (size_t i = 3; i < fds.size(); ++i) {
            if (fds[i].revents & (POLLIN | POLLHUP | POLLERR))
                readClient(*conns_[i - 3]);
        }
        conns_.erase(
            std::remove_if(conns_.begin(), conns_.end(),
                           [](const std::unique_ptr<Conn> &conn) {
                               return conn->fd < 0;
                           }),
            conns_.end());

        if (!batch_ && !pending_.empty() &&
            (draining_ ||
             fabric::monotonicMs() >= batch_deadline_ms_)) {
            startBatch();
        }

        if (draining_ && !batch_ && pending_.empty()) {
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
