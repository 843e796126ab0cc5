/**
 * @file
 * fvc_sweepd's serving core: a single-threaded poll() loop that
 * multiplexes any number of client connections over one Unix-domain
 * socket and funnels their cells into the shared ResultRepository.
 *
 * Reads are answered at once; only misses batch. A SubmitCells
 * frame whose every cell the result store already holds is answered
 * as soon as it is read (ResultRepository::serveStored): it waits
 * for no window and no simulation. A submission with any miss opens
 * or joins the batching window (Options::batch_window_ms, default
 * 5 ms; the fvc_sweepd --batch-ms flag sets it). Every such
 * submission that arrives before the window closes — from the same
 * client or any other — joins the same ResultRepository::runCells
 * dispatch, so two users sweeping overlapping grids share one
 * simulation and one store publish (the repository's dedup and
 * store-hit counters prove it).
 *
 * The batch simulates on a thread of its own, one batch at a time.
 * It is not a pool job, because runCells itself waits on the shared
 * pool. Meanwhile the poll loop keeps accepting clients and
 * answering hits, Ping and Stats; a self-pipe wakes it when the
 * batch is done, and the loop sends the batch's replies. Misses that
 * arrive while a batch simulates wait for the next batch, which
 * finds the first one's results in the store, so each distinct
 * fingerprint is still simulated once. Each submission's reply —
 * its Result frames, with the client's own cell indices, then
 * BatchDone — goes out as one buffer. A connection's replies keep
 * its submission order: a submission behind a queued one queues
 * too, hits included.
 *
 * Failure domains, per the PR 2 contract:
 *  - A malformed frame (bad magic, absurd length, CRC failure, or
 *    an undecodable payload) poisons only that connection: it is
 *    closed, a warning names the reason, and every other client —
 *    including ones that connect later — is served normally.
 *  - A cell that fails to simulate returns a status=FAILED Result
 *    frame, never a dead daemon. That is why create() refuses
 *    FVC_STRICT=1, which would make a failed batch fatal.
 *  - A dead client mid-batch costs nothing: its results are
 *    published to the store, the send is dropped on the floor.
 *
 * Lifecycle: create() refuses to run beside a live daemon on the
 * same socket (connect probe), but cleans up and rebinds over a
 * stale socket file left by a dead one. A Shutdown frame (or
 * requestStop(), the signal-handler hook) stops reading clients,
 * then finishes the simulating batch and every pending submission
 * before the acknowledging frame and a clean exit; the socket file
 * is unlinked on destruction.
 */

#ifndef FVC_DAEMON_SERVER_HH_
#define FVC_DAEMON_SERVER_HH_

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "daemon/protocol.hh"
#include "fabric/cell.hh"
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
     * unlinked and rebound. FVC_STRICT=1 is an error: it is a
     * client-side setting. The server owns its socket and its
     * batch thread, so it is never moved.
     */
    static util::Expected<std::unique_ptr<Server>>
    create(const Options &options);

    ~Server();
    Server(const Server &) = delete;
    Server &operator=(const Server &) = delete;

    const std::string &socketPath() const { return path_; }

    /** Serve until a Shutdown frame or requestStop(). */
    void run();

    /**
     * Ask a running run() loop to drain and exit; callable from
     * any thread or from a signal handler (one async-signal-safe
     * write to a self-pipe).
     */
    void requestStop();

  private:
    struct Conn;
    struct Pending;
    struct Batch;

    Server() = default;

    void acceptClients();
    /** @return false when the connection must be closed. */
    bool handleFrame(Conn &conn, const util::Frame &frame);
    /** Answer a submission from the store, or queue it for a
     * batch. @return false when the connection must be closed. */
    bool submit(Conn &conn, std::vector<fabric::CellSpec> cells);
    /** Send one submission's whole reply in one send: a Result
     * frame per cell, indexed as the client submitted it (a nullopt
     * result is a FAILED cell), then BatchDone. @return false when
     * the peer is gone. */
    bool reply(Conn &conn, std::span<const fabric::CellSpec> cells,
               std::span<const std::optional<fabric::CellStats>>
                   results);
    void readClient(Conn &conn);
    /** Hand every pending submission to a new batch thread. */
    void startBatch();
    /** Join the finished batch thread and send its replies. */
    void finishBatch();
    void closeConn(Conn &conn);
    DaemonStats statsSnapshot() const;

    int listen_fd_ = -1;
    int stop_pipe_[2] = {-1, -1};
    /** The batch thread writes one byte here when it is done. */
    int done_pipe_[2] = {-1, -1};
    std::string path_;
    uint64_t batch_window_ms_ = 5;
    uint64_t batch_deadline_ms_ = 0;
    uint64_t next_conn_id_ = 1;
    bool draining_ = false;
    std::vector<std::unique_ptr<Conn>> conns_;
    std::vector<Pending> pending_;
    /** The batch simulating now, if any. */
    std::unique_ptr<Batch> batch_;
    DaemonStats counters_;
};

} // namespace fvc::daemon

#endif // FVC_DAEMON_SERVER_HH_
