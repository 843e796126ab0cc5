/**
 * @file
 * fvc_sweepd — the long-running sweep server.
 *
 * Usage: fvc_sweepd [--sock PATH] [--batch-ms N]
 *
 * Binds the Unix-domain socket (FVC_DAEMON_SOCK or the per-uid
 * default under TMPDIR), then serves SubmitCells batches from any
 * number of clients until a Shutdown frame or SIGTERM/SIGINT. The
 * daemon is the process that simulates, so its environment decides
 * the result-store location (FVC_RESULT_DIR), worker count
 * (FVC_WORKERS), and warm-serve expectations — clients only ship
 * cell specs and read back stats.
 */

#include <csignal>
#include <cstring>

#include <unistd.h>

#include "daemon/server.hh"
#include "util/logging.hh"
#include "util/strings.hh"

namespace {

fvc::daemon::Server *g_server = nullptr;

void
onSignal(int)
{
    if (g_server)
        g_server->requestStop();
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace fvc;

    daemon::Server::Options options;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--sock") == 0 && i + 1 < argc) {
            options.socket_path = argv[++i];
        } else if (std::strcmp(argv[i], "--batch-ms") == 0 &&
                   i + 1 < argc) {
            auto v = util::parseUint(argv[++i]);
            if (!v)
                fvc_fatal("bad --batch-ms value: ", argv[i]);
            options.batch_window_ms = *v;
        } else if (std::strcmp(argv[i], "--help") == 0) {
            fvc_inform(
                "usage: fvc_sweepd [--sock PATH] [--batch-ms N]");
            return 0;
        } else {
            fvc_fatal("unknown argument: ", argv[i],
                      " (try --help)");
        }
    }

    auto created = daemon::Server::create(options);
    if (!created.ok())
        fvc_fatal("fvc_sweepd: ", created.error().describe());
    daemon::Server &server = *created.value();

    g_server = &server;
    struct sigaction sa;
    std::memset(&sa, 0, sizeof(sa));
    sa.sa_handler = onSignal;
    ::sigaction(SIGTERM, &sa, nullptr);
    ::sigaction(SIGINT, &sa, nullptr);

    fvc_inform("fvc_sweepd listening on ",
               server.socketPath(), " (pid ", ::getpid(),
               ")");
    server.run();
    fvc_inform("fvc_sweepd exiting");
    g_server = nullptr;
    return 0;
}
