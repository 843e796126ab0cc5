/**
 * @file
 * The fabric worker loop: claim, simulate, publish.
 *
 * Runs in a forked child of the coordinator (no exec — the child
 * inherits the cell vector, the queue mapping, and the environment)
 * on its one thread. The worker never judges its own health: the
 * coordinator decides when a cell is lost, from what it knows of
 * its own child processes (fabric.cc), and the worker dies with
 * the coordinator that forked it.
 */

#include <cstring>
#include <unordered_set>

#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <time.h>
#include <unistd.h>

#include "fabric/cell.hh"
#include "fabric/fabric.hh"
#include "fabric/queue.hh"
#include "fabric/spill.hh"
#include "util/logging.hh"
#include "verify/fault_injector.hh"

namespace fvc::fabric {

namespace {

void
sleepMs(uint64_t ms)
{
    struct timespec ts;
    ts.tv_sec = static_cast<time_t>(ms / 1000);
    ts.tv_nsec = static_cast<long>((ms % 1000) * 1000000);
    ::nanosleep(&ts, nullptr);
}

/**
 * Whether a configured fabric fault should fire for this attempt.
 * Default is once per fabric directory — an O_CREAT|O_EXCL marker
 * file makes "first attempt crashes, retry succeeds" deterministic
 * across the re-queued attempt (which may run in a different
 * process). sticky=1 skips the marker so the fault fires on every
 * attempt, which is how retry-budget exhaustion is tested.
 */
bool
faultFires(const std::string &dir, const char *kind, bool sticky)
{
    if (sticky)
        return true;
    std::string marker = dir + "/fault-" + kind + ".mark";
    int fd = ::open(marker.c_str(), O_WRONLY | O_CREAT | O_EXCL,
                    0644);
    if (fd < 0)
        return false; // already fired (or unwritable dir: don't)
    ::close(fd);
    return true;
}

} // namespace

namespace detail {

std::optional<size_t>
claimCell(SharedQueue &queue, uint32_t pid,
          const std::unordered_set<uint64_t> &local_traces)
{
    const size_t n = queue.cellCount();
    // Pass 1: locality — a cell whose trace is already mapped here.
    for (size_t i = 0; i < n; ++i) {
        if (queue.load(i).state != CellState::Pending)
            continue;
        if (!local_traces.count(queue.profileHash(i)))
            continue;
        if (queue.tryClaim(i, pid))
            return i;
    }
    // Pass 2: spread — a cell of a trace no worker has started, so
    // workers begin on different traces and pass 1 keeps each one
    // there.
    std::unordered_set<uint64_t> started;
    for (size_t i = 0; i < n; ++i) {
        if (queue.load(i).state != CellState::Pending)
            started.insert(queue.profileHash(i));
    }
    for (size_t i = 0; i < n; ++i) {
        if (queue.load(i).state != CellState::Pending)
            continue;
        if (started.count(queue.profileHash(i)))
            continue;
        if (queue.tryClaim(i, pid))
            return i;
    }
    // Pass 3: any pending cell.
    for (size_t i = 0; i < n; ++i) {
        if (queue.load(i).state != CellState::Pending)
            continue;
        if (queue.tryClaim(i, pid))
            return i;
    }
    return std::nullopt;
}

int
runWorkerProcess(SharedQueue &queue,
                 const std::vector<CellSpec> &cells,
                 unsigned worker_id, const std::string &dir)
{
    // A worker dies with the thread that forked it, so a killed
    // coordinator takes its workers along: no worker is left waiting
    // on a claim only the coordinator could requeue. A coordinator
    // that died before the prctl is caught by the reparenting.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (static_cast<uint32_t>(::getppid()) != queue.coordinatorPid())
        return 1;

    const uint32_t pid = static_cast<uint32_t>(::getpid());

    SpillHeader header;
    header.run_id = queue.runId();
    header.worker_pid = pid;
    header.worker_id = worker_id;
    const std::string part = dir + "/w" + std::to_string(worker_id) +
                             "-" + std::to_string(pid) + ".part";
    auto writer = SpillWriter::open(part, header);
    if (!writer.ok()) {
        fvc_warn("fabric worker ", worker_id, ": ",
                 writer.error().describe());
        return 1;
    }
    SpillWriter spill = std::move(writer.value());

    const auto fault = verify::FaultSpec::fromEnv();

    std::unordered_set<uint64_t> local_traces;
    while (!queue.shutdownRequested()) {
        auto claimed = claimCell(queue, pid, local_traces);
        if (!claimed) {
            if (queue.complete())
                break;
            sleepMs(2);
            continue;
        }
        const size_t i = *claimed;

        if (fault && fault->kill_cell && *fault->kill_cell == i &&
            faultFires(dir, "kill", fault->sticky)) {
            ::raise(SIGKILL); // never returns
        }
        if (fault && fault->hang_cell && *fault->hang_cell == i &&
            faultFires(dir, "hang", fault->sticky)) {
            // Wedged while holding the claim: only the per-cell
            // budget or a kill from outside ends this.
            for (;;)
                ::pause();
        }

        SpillRecord record;
        try {
            record.stats = simulateCell(cells[i]);
        } catch (const std::exception &e) {
            queue.releaseFailed(i, pid);
            fvc_warn("fabric worker ", worker_id, ": cell #", i,
                     " (", cells[i].describe(), ") failed: ",
                     e.what());
            continue;
        }

        record.cell_index = static_cast<uint32_t>(i);
        record.attempts = queue.load(i).attempts;
        record.fingerprint = queue.fingerprint(i);
        record.run_id = queue.runId();
        record.worker_pid = pid;
        std::optional<uint32_t> corrupt_bit;
        if (fault && fault->corrupt_spill &&
            *fault->corrupt_spill == i &&
            faultFires(dir, "corrupt", fault->sticky)) {
            corrupt_bit =
                static_cast<uint32_t>(fault->seed % 509 + 256);
        }
        if (auto err = spill.append(record, corrupt_bit)) {
            queue.releaseFailed(i, pid);
            fvc_warn("fabric worker ", worker_id, ": ",
                     err->describe());
            continue;
        }
        // The record is durable; claim completion. Nothing else
        // moves a live owner's claim, so this CAS succeeds.
        queue.markDone(i, pid);
        local_traces.insert(queue.profileHash(i));
    }

    spill.close();
    // Atomic publish: a ".spill" file is complete by construction;
    // a ".part" file may end in a torn frame.
    std::string published = part;
    published.replace(published.size() - 5, 5, ".spill");
    if (::rename(part.c_str(), published.c_str()) != 0) {
        fvc_warn("fabric worker ", worker_id,
                 ": spill publish failed: ", std::strerror(errno));
        return 1;
    }
    return 0;
}

} // namespace detail

} // namespace fvc::fabric
