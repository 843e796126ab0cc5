/**
 * @file
 * fvc_sweepd's serving core: a single-threaded poll() loop that
 * multiplexes any number of client connections over one Unix-domain
 * socket and funnels their cells into the shared ResultRepository.
 *
 * Batching: the first SubmitCells frame of an idle daemon opens a
 * batching window (Options::batch_window_ms, default 5 ms; the
 * fvc_sweepd --batch-ms flag sets it). Every submission that
 * arrives before the window closes — from the same client or any
 * other — joins the same ResultRepository::runCells dispatch, so
 * two users sweeping overlapping grids share one simulation and one
 * store publish (the repository's dedup/store-hit counters prove
 * it). Results stream back per submission with the client's own
 * cell indices, so interleaving across clients is invisible.
 *
 * Failure domains, per the PR 2 contract:
 *  - A malformed frame (bad magic, absurd length, CRC failure, or
 *    an undecodable payload) poisons only that connection: it is
 *    closed, a warning names the reason, and every other client —
 *    including ones that connect later — is served normally.
 *  - A cell that fails to simulate returns a status=FAILED Result
 *    frame, never a dead daemon.
 *  - A dead client mid-batch costs nothing: its results are
 *    published to the store, the send is dropped on the floor.
 *
 * Lifecycle: create() refuses to run beside a live daemon on the
 * same socket (connect probe), but cleans up and rebinds over a
 * stale socket file left by a dead one. A Shutdown frame (or
 * requestStop(), the signal-handler hook) drains in-flight batches
 * before the acknowledging frame and a clean exit; the socket file
 * is unlinked on destruction.
 */

#ifndef FVC_DAEMON_SERVER_HH_
#define FVC_DAEMON_SERVER_HH_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "daemon/protocol.hh"
#include "util/error.hh"

namespace fvc::daemon {

class Server
{
  public:
    struct Options
    {
        /** Socket path; empty = socketPath(). */
        std::string socket_path;
        /** Batching window in ms; 0 dispatches immediately. */
        uint64_t batch_window_ms = 5;
    };

    /**
     * Bind and listen. A live daemon on the path is an error; a
     * stale socket file (bind says in-use but nobody accepts) is
     * unlinked and rebound.
     */
    static util::Expected<Server> create(const Options &options);

    Server() = default;
    ~Server();
    Server(Server &&other) noexcept;
    Server &operator=(Server &&other) noexcept;
    Server(const Server &) = delete;
    Server &operator=(const Server &) = delete;

    bool valid() const { return listen_fd_ >= 0; }
    const std::string &socketPath() const { return path_; }

    /** Serve until a Shutdown frame or requestStop(). */
    void run();

    /**
     * Ask a running run() loop to drain and exit; callable from
     * any thread or from a signal handler (one async-signal-safe
     * write to a self-pipe).
     */
    void requestStop();

    /** Serving counters (the Stats frame's server half). */
    const DaemonStats &counters() const { return counters_; }

  private:
    struct Conn;
    struct Pending;

    void acceptClients();
    /** @return false when the connection must be closed. */
    bool handleFrame(Conn &conn, const util::Frame &frame);
    void readClient(Conn &conn);
    void dispatchBatch();
    void closeConn(Conn &conn);
    DaemonStats statsSnapshot() const;

    int listen_fd_ = -1;
    int stop_pipe_[2] = {-1, -1};
    std::string path_;
    uint64_t batch_window_ms_ = 5;
    uint64_t batch_deadline_ms_ = 0;
    bool draining_ = false;
    std::vector<std::unique_ptr<Conn>> conns_;
    std::vector<Pending> pending_;
    DaemonStats counters_;
};

} // namespace fvc::daemon

#endif // FVC_DAEMON_SERVER_HH_
