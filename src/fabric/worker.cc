/**
 * @file
 * The fabric worker loop: claim, simulate, publish, heartbeat.
 *
 * Runs in a forked child of the coordinator (no exec — the child
 * inherits the cell vector, the queue mapping, and the environment).
 * A heartbeat thread renews the lease of whatever cell is in flight,
 * but stops renewing once the cell has been running longer than
 * FVC_JOB_TIMEOUT_MS — letting the lease lapse is precisely how a
 * wedged job gets killed and re-queued, a reclaim no thread backend
 * can perform. The heartbeat waits on
 * its stop token, so once the queue completes the worker publishes
 * its spill and exits at once, whatever the lease period.
 */

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <mutex>
#include <thread>
#include <unordered_set>

#include <fcntl.h>
#include <signal.h>
#include <time.h>
#include <unistd.h>

#include "fabric/cell.hh"
#include "fabric/fabric.hh"
#include "fabric/queue.hh"
#include "fabric/spill.hh"
#include "harness/parallel.hh"
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

/** Claim scan: prefer Pending cells whose trace this worker has
 * already simulated (and therefore maps), then any Pending cell,
 * then steal an expired lease. Returns nullopt when nothing is
 * claimable right now. */
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
    // Pass 2: any pending cell.
    for (size_t i = 0; i < n; ++i) {
        if (queue.load(i).state != CellState::Pending)
            continue;
        if (queue.tryClaim(i, pid))
            return i;
    }
    // Pass 3: steal an expired lease (owner crashed or hung).
    const uint64_t now = monotonicMs();
    for (size_t i = 0; i < n; ++i) {
        SlotCtl ctl = queue.load(i);
        if (ctl.state != CellState::Leased || ctl.pid == pid)
            continue;
        if (queue.deadline(i) > now)
            continue;
        if (queue.trySteal(i, pid, now))
            return i;
    }
    return std::nullopt;
}

} // namespace

namespace detail {

int
runWorkerProcess(SharedQueue &queue,
                 const std::vector<CellSpec> &cells,
                 unsigned worker_id, const std::string &dir)
{
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
    const uint64_t lease_ms = queue.leaseMs();
    const uint64_t job_budget_ms = jobTimeoutMs();

    // Heartbeat: renew the in-flight cell's lease at a quarter of
    // the lease period. Stops renewing once the cell has run past
    // FVC_JOB_TIMEOUT_MS, so a wedged simulation loses its lease
    // and gets killed + re-queued by the coordinator. The wait
    // returns early on request_stop(), so joining it never waits
    // out a period.
    std::atomic<size_t> active{SIZE_MAX};
    std::atomic<uint64_t> started_ms{0};
    std::jthread heartbeat([&](std::stop_token token) {
        const std::chrono::milliseconds period(
            std::max<uint64_t>(lease_ms / 4, 5));
        std::mutex mutex;
        std::condition_variable_any wake;
        std::unique_lock lock(mutex);
        for (;;) {
            wake.wait_for(lock, token, period, [] { return false; });
            if (token.stop_requested())
                return;
            size_t i = active.load(std::memory_order_acquire);
            if (i == SIZE_MAX)
                continue;
            uint64_t now = monotonicMs();
            if (job_budget_ms > 0 &&
                now - started_ms.load(std::memory_order_acquire) >
                    job_budget_ms) {
                continue; // over budget: let the lease lapse
            }
            queue.renewLease(i, pid, now + lease_ms);
        }
    });

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
            // Stopped, not dead: only SIGKILL (which works on a
            // stopped process) can clean this worker up.
            ::raise(SIGSTOP);
        }

        started_ms.store(monotonicMs(), std::memory_order_release);
        active.store(i, std::memory_order_release);
        SpillRecord record;
        try {
            record.stats = simulateCell(cells[i]);
        } catch (const std::exception &e) {
            active.store(SIZE_MAX, std::memory_order_release);
            queue.releaseFailed(i, pid);
            fvc_warn("fabric worker ", worker_id, ": cell #", i,
                     " (", cells[i].describe(), ") failed: ",
                     e.what());
            continue;
        }
        active.store(SIZE_MAX, std::memory_order_release);

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
        // The record is durable; claim completion. A failed CAS
        // means the cell was stolen/reclaimed meanwhile — the
        // record stays behind as a harmless duplicate.
        queue.markDone(i, pid);
        local_traces.insert(queue.profileHash(i));
    }

    heartbeat.request_stop();
    heartbeat.join();
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
