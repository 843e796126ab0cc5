/**
 * @file
 * daemon::Client — the small blocking library benches use to serve
 * sweeps through a running fvc_sweepd, plus daemon::runCells, the
 * drop-in replacement for resultcache::runCells that dispatches
 * per FVC_DAEMON:
 *
 *  - "off": always in-process (byte-identical by construction).
 *  - "auto" (default): one quick connect probe; a daemon that
 *    answers serves the sweep, anything else falls back to the
 *    in-process path silently.
 *  - "on": a reachable daemon is mandatory; connect failures after
 *    3 attempts are fatal (the acceptance-gate mode — accidental
 *    in-process fallback must not pass for a daemon-served run).
 *
 * FVC_RESULT_EXPECT_WARM=1 is an in-process check, as FVC_STRICT=1
 * is a client-side one: a reply cannot say which cells the daemon
 * simulated, so "auto" resolves such a sweep in-process against the
 * client's own store, and "on" refuses it.
 *
 * The daemon performs the exact ResultRepository::runCells call the
 * client would have made, so a daemon-served sweep's results, and
 * with them its tables and CSVs, are byte-identical to an
 * in-process one's. runCells hands each served FAILED cell to
 * harness::reportSweepFailures as one row naming the daemon's pid
 * (the daemon's log has the error), so FVC_STRICT=1 fails a served
 * sweep as it fails an in-process one, and either failure table
 * lists failed cells. submit() survives a daemon restart: a
 * connection that dies mid-conversation is reconnected
 * (Options::retries attempts, default 3; backoff bounded by
 * Options::timeout_ms, default 2000 ms) and the whole request is
 * resubmitted — results are pure
 * functions of the specs and the store dedups re-asked cells, so a
 * resubmission costs a lookup, not a re-simulation.
 */

#ifndef FVC_DAEMON_CLIENT_HH_
#define FVC_DAEMON_CLIENT_HH_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "daemon/protocol.hh"
#include "util/error.hh"

namespace fvc::daemon {

/** Client dispatch mode, from FVC_DAEMON. */
enum class DaemonMode {
    Auto,
    On,
    Off,
};

/** FVC_DAEMON: "auto" (the default), "on" or "off". */
DaemonMode daemonMode();

/** The mode's canonical name ("auto"/"on"/"off"). */
const char *daemonModeName(DaemonMode mode);

class Client
{
  public:
    struct Options
    {
        /** Socket path; empty = socketPath(). */
        std::string socket_path;
        /** Connect/reconnect attempts; 0 = 3. */
        unsigned retries = 0;
        /** Per-attempt connect/control-reply timeout and backoff
         * ceiling in ms; 0 = 2000. */
        uint64_t timeout_ms = 0;
    };

    /** Connect and complete the Hello handshake. */
    static util::Expected<Client> connect(const Options &options);

    Client() = default;
    ~Client();
    Client(Client &&other) noexcept;
    Client &operator=(Client &&other) noexcept;
    Client(const Client &) = delete;
    Client &operator=(const Client &) = delete;

    bool valid() const { return fd_ >= 0; }

    /**
     * Serve @p cells through the daemon: one slot per cell in
     * submission order, nullopt = FAILED (exactly the
     * resultcache::runCells contract). Blocks for as long as the
     * batch simulates; reconnects and resubmits across a daemon
     * restart. Errors only when the daemon stays unreachable
     * through the retry budget.
     */
    util::Expected<std::vector<std::optional<fabric::CellStats>>>
    submit(const std::vector<fabric::CellSpec> &cells);

    /** Round-trip a Ping; returns the echoed token. */
    util::Expected<uint64_t> ping(uint64_t token);

    /** Fetch the daemon's serving counters. */
    util::Expected<DaemonStats> stats();

    /** Ask the daemon to drain and exit; waits for the ack. */
    std::optional<util::Error> shutdownDaemon();

    /** The daemon's pid, from the Hello handshake. */
    uint32_t daemonPid() const { return daemon_pid_; }

  private:
    util::Expected<util::Frame> readFrame(uint64_t timeout_ms);
    std::optional<util::Error> connectOnce();
    std::optional<util::Error> reconnect();
    void closeSocket();

    int fd_ = -1;
    uint32_t daemon_pid_ = 0;
    std::string path_;
    unsigned retries_ = 0;
    uint64_t timeout_ms_ = 0;
    FrameBuffer frames_;
};

/**
 * Serve @p cells per FVC_DAEMON (see the file comment), falling
 * back to resultcache::runCells whenever the daemon path is off or
 * unavailable. Served FAILED cells go to
 * harness::reportSweepFailures, as in-process failures do. Every
 * cacheable bench calls this entry point, so FVC_DAEMON alone
 * decides in-process or served.
 */
std::vector<std::optional<fabric::CellStats>>
runCells(const std::vector<fabric::CellSpec> &cells,
         const std::string &what);

} // namespace fvc::daemon

#endif // FVC_DAEMON_CLIENT_HH_
