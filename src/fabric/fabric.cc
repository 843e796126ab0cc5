/**
 * @file
 * The fabric coordinator: fork, supervise, reclaim, merge.
 *
 * See fabric.hh for the contract. The coordinator's supervise loop
 * is deliberately simple — reap children, reclaim expired leases
 * (SIGKILLing live-but-stuck owners first; SIGKILL works on a
 * SIGSTOPped process), respawn replacements while work remains, and
 * validate at the completion barrier that every Done cell is backed
 * by a CRC-valid record, demoting the ones that are not. Between
 * passes it sleeps until a worker exits (poll on one pidfd per
 * unreaped worker) or the lease-derived poll period passes, so a
 * run ends as soon as its workers have published. All result truth
 * lives in the spill records; the queue is only scheduling state and
 * is discarded at the end.
 */

#include "fabric/fabric.hh"

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <unordered_map>
#include <utility>

#include <dirent.h>
#include <poll.h>
#include <signal.h>
#include <sys/stat.h>
#include <sys/syscall.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include "fabric/queue.hh"
#include "util/knobs.hh"
#include "util/logging.hh"
#include "util/strings.hh"

namespace fvc::fabric {

namespace {

bool
pidAlive(pid_t pid)
{
    if (pid <= 0)
        return false;
    if (::kill(pid, 0) != 0 && errno != EPERM)
        return false;
    // A zombie still answers kill(): it has exited, but nobody has
    // reaped it yet (a killed run's orphaned workers under an init
    // that reaps lazily). State is the field after "(comm)".
    std::ifstream stat("/proc/" + std::to_string(pid) + "/stat");
    std::string text;
    std::getline(stat, text);
    const size_t paren = text.rfind(')');
    return paren == std::string::npos || paren + 2 >= text.size() ||
           text[paren + 2] != 'Z';
}

/** mkdir -p (each component; EEXIST is success). */
void
makeDirs(const std::string &path)
{
    for (size_t pos = 1; pos <= path.size(); ++pos) {
        if (pos != path.size() && path[pos] != '/')
            continue;
        std::string prefix = path.substr(0, pos);
        if (::mkdir(prefix.c_str(), 0755) != 0 && errno != EEXIST)
            fvc_warn("fabric: mkdir ", prefix, ": ",
                     std::strerror(errno));
    }
}

/** All decimal digits? (strict pid parsing in file names). */
std::optional<pid_t>
parsePid(const std::string &text)
{
    auto v = util::parseUint(text);
    if (!v || *v == 0 || *v > 0x7fffffffull)
        return std::nullopt;
    return static_cast<pid_t>(*v);
}

/** An owned pidfd: readable once its process has exited. -1 when
 * pidfd_open failed (the process is then only found by waitpid).
 * The raw syscall, because glibc 2.36's <sys/pidfd.h> declares
 * pidfd_open without C linkage, so C++ callers fail to link. */
class PidFd
{
  public:
    explicit PidFd(pid_t pid)
        : fd_(static_cast<int>(::syscall(SYS_pidfd_open, pid, 0)))
    {
    }
    PidFd(PidFd &&other) noexcept : fd_(std::exchange(other.fd_, -1)) {}
    ~PidFd() { reset(); }

    int get() const { return fd_; }

    void reset()
    {
        if (fd_ >= 0)
            ::close(fd_);
        fd_ = -1;
    }

  private:
    int fd_ = -1;
};

/** A coordinator-side handle on one forked worker. */
struct WorkerProc
{
    pid_t pid = 0;
    unsigned id = 0;
    /** The worker's spill file before (".part") and after
     * (".spill") its atomic publish rename. */
    std::string part;
    std::string spill;
    /** Watched by waitForExit; closed when the worker is reaped,
     * because a reaped worker's pidfd stays readable for good and
     * polling it would spin. */
    PidFd pidfd;
    bool alive = true;
};

/** Sleep up to @p ms, waking early when an unreaped worker exits.
 * With no pidfd to watch, this is a plain sleep. */
void
waitForExit(const std::vector<WorkerProc> &procs, uint64_t ms)
{
    std::vector<struct pollfd> fds;
    for (const auto &proc : procs) {
        if (proc.pidfd.get() >= 0)
            fds.push_back({proc.pidfd.get(), POLLIN, 0});
    }
    ::poll(fds.data(), fds.size(), static_cast<int>(ms));
}

uint64_t
makeRunId()
{
    struct timespec ts;
    ::clock_gettime(CLOCK_REALTIME, &ts);
    uint64_t z = static_cast<uint64_t>(ts.tv_sec) * 1000000000ull +
                 static_cast<uint64_t>(ts.tv_nsec);
    z ^= static_cast<uint64_t>(::getpid()) << 48;
    z += 0x9e3779b97f4a7c15ull;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    z ^= z >> 31;
    return z ? z : 1;
}

/** Read one worker's spill file (.part, or .spill if published)
 * and fold its records into @p records (first record wins). */
void
harvestOne(const WorkerProc &proc,
           std::unordered_map<uint64_t, SpillRecord> &records,
           FabricOutcome &out)
{
    // The worker renames .part -> .spill on clean exit; checking
    // spill, part, then spill again closes the window where the
    // rename lands between the first two checks.
    for (const std::string &path :
         {proc.spill, proc.part, proc.spill}) {
        auto contents = readSpillFile(path);
        if (!contents.ok())
            continue;
        out.rejected_frames += contents.value().rejected_frames;
        for (const auto &record : contents.value().records)
            records.emplace(record.fingerprint, record);
        return;
    }
}

/** A fabric file whose owning pid is gone. */
struct DeadFile
{
    std::string path;
    /** A worker spill ("w<id>-<pid>.part|.spill"), else a
     * coordinator queue ("queue-<pid>.fvcq"). */
    bool spill = false;
};

/** The queue and spill files in @p dir owned by dead pids. */
std::vector<DeadFile>
deadPidFiles(const std::string &dir)
{
    std::vector<DeadFile> out;
    DIR *d = ::opendir(dir.c_str());
    if (!d)
        return out;
    while (struct dirent *entry = ::readdir(d)) {
        std::string name = entry->d_name;
        std::optional<pid_t> pid;
        bool spill = false;
        if (name.rfind("queue-", 0) == 0 && name.size() > 11 &&
            name.compare(name.size() - 5, 5, ".fvcq") == 0) {
            pid = parsePid(name.substr(6, name.size() - 11));
        } else if (name.size() > 2 && name[0] == 'w') {
            size_t dot = name.rfind('.');
            size_t dash = name.rfind('-');
            if (dot == std::string::npos ||
                dash == std::string::npos || dash > dot)
                continue;
            std::string ext = name.substr(dot);
            if (ext != ".part" && ext != ".spill")
                continue;
            pid = parsePid(name.substr(dash + 1, dot - dash - 1));
            spill = true;
        }
        if (pid && !pidAlive(*pid))
            out.push_back({dir + "/" + name, spill});
    }
    ::closedir(d);
    return out;
}

} // namespace

std::optional<unsigned>
configuredWorkers()
{
    const uint64_t workers =
        util::knobCount("FVC_WORKERS", 0, 1, 1024);
    if (workers == 0)
        return std::nullopt;
    return static_cast<unsigned>(workers);
}

uint64_t
leaseMs()
{
    return util::knobCount("FVC_LEASE_MS", 2000, 20, 86400000);
}

unsigned
sweepRetries()
{
    return static_cast<unsigned>(
        util::knobCount("FVC_RETRIES", 2, 0, 249));
}

uint64_t
jobTimeoutMs()
{
    return util::knobCount("FVC_JOB_TIMEOUT_MS", 0, 0, UINT64_MAX);
}

bool
fabricDirConfigured()
{
    return !util::knobText("FVC_FABRIC_DIR").empty();
}

std::string
fabricDir()
{
    const std::string dir = util::knobText("FVC_FABRIC_DIR");
    if (!dir.empty())
        return dir;
    return util::tempDir() + "/fvc-fabric-" +
           std::to_string(::getpid());
}

void
cleanupStaleFabricFiles(const std::string &dir)
{
    for (const auto &file : deadPidFiles(dir)) {
        if (!file.spill)
            ::unlink(file.path.c_str());
    }
}

DeadSpills
harvestDeadSpills(const std::string &dir)
{
    DeadSpills out;
    for (const auto &file : deadPidFiles(dir)) {
        if (!file.spill)
            continue;
        // An unreadable spill (empty, or removed by a concurrent
        // harvester) holds nothing to recover; it is still listed
        // so the caller removes it.
        if (auto contents = readSpillFile(file.path); contents.ok()) {
            const auto &records = contents.value().records;
            out.records.insert(out.records.end(), records.begin(),
                               records.end());
        }
        out.paths.push_back(file.path);
    }
    return out;
}

FabricRunner::FabricRunner(FabricOptions options)
    : options_(std::move(options))
{
}

size_t
FabricRunner::submit(CellSpec cell)
{
    cells_.push_back(std::move(cell));
    return cells_.size() - 1;
}

FabricOutcome
FabricRunner::run()
{
    std::vector<CellSpec> cells = std::move(cells_);
    cells_.clear();
    const size_t n = cells.size();

    FabricOutcome out;
    out.run_id = makeRunId();
    out.results.resize(n);
    out.meta.resize(n);
    if (n == 0)
        return out;

    const unsigned workers = std::max(
        1u, options_.workers ? options_.workers
                             : configuredWorkers().value_or(1));
    const uint64_t lease =
        options_.lease_ms ? options_.lease_ms : leaseMs();
    const unsigned retries = options_.retries
                                 ? *options_.retries
                                 : sweepRetries();
    const bool ephemeral =
        options_.dir.empty() && !fabricDirConfigured();
    const std::string dir =
        options_.dir.empty() ? fabricDir() : options_.dir;
    makeDirs(dir);
    cleanupStaleFabricFiles(dir);

    std::vector<uint64_t> fps(n);
    std::vector<CellSeed> seeds(n);
    for (size_t i = 0; i < n; ++i) {
        fps[i] = cellFingerprint(cells[i]);
        seeds[i].profile_hash = cellTraceHash(cells[i]);
        seeds[i].fingerprint = fps[i];
    }
    std::unordered_map<uint64_t, SpillRecord> records;

    const std::string queue_path =
        dir + "/queue-" + std::to_string(::getpid()) + ".fvcq";
    auto created = SharedQueue::create(queue_path, seeds,
                                       retries + 1, lease,
                                       out.run_id);
    if (!created.ok()) {
        for (size_t i = 0; i < n; ++i) {
            out.failures.push_back(
                {i, cells[i].describe() + ": fabric queue: " +
                        created.error().describe()});
        }
        return out;
    }
    SharedQueue queue = std::move(created.value());

    std::vector<WorkerProc> procs;
    unsigned next_id = 0;
    size_t spawns = 0;
    // Generous respawn bound: every cell can burn its whole retry
    // budget on a fresh worker before we give up on forking.
    const size_t spawn_cap = workers + (retries + 2) * n;

    auto spawnWorker = [&]() -> bool {
        unsigned id = next_id++;
        pid_t child = ::fork();
        if (child < 0) {
            fvc_warn("fabric: fork failed: ",
                     std::strerror(errno));
            return false;
        }
        if (child == 0) {
            // Worker child: never return into the coordinator's
            // logic (or gtest's atexit handlers) — _exit directly.
            ::_exit(detail::runWorkerProcess(queue, cells, id, dir));
        }
        const std::string stem = dir + "/w" + std::to_string(id) +
                                 "-" + std::to_string(child);
        procs.push_back(
            {child, id, stem + ".part", stem + ".spill", PidFd(child)});
        ++spawns;
        return true;
    };

    for (unsigned i = 0; i < std::min<size_t>(workers, n); ++i)
        spawnWorker();

    const uint64_t poll_ms =
        std::clamp<uint64_t>(lease / 8, 2, 50);
    auto reap = [&] {
        for (auto &proc : procs) {
            if (!proc.alive)
                continue;
            int status = 0;
            if (::waitpid(proc.pid, &status, WNOHANG) != proc.pid)
                continue;
            proc.alive = false;
            proc.pidfd.reset();
            // The death is known now: requeue the dead worker's
            // leases instead of waiting out their deadlines. The
            // pid-checked release leaves a lease a peer stole alone.
            const auto pid = static_cast<uint32_t>(proc.pid);
            for (size_t i = 0; i < n; ++i) {
                if (queue.releaseFailed(i, pid))
                    ++out.reclaims;
            }
        }
    };

    for (;;) {
        reap();

        // Reclaim expired leases; SIGKILL a live owner first (a
        // SIGSTOPped or wedged worker won't die any other way).
        const uint64_t now = monotonicMs();
        for (size_t i = 0; i < n; ++i) {
            SlotCtl ctl = queue.load(i);
            if (ctl.state != CellState::Leased ||
                queue.deadline(i) > now)
                continue;
            for (auto &proc : procs) {
                if (proc.alive &&
                    static_cast<uint32_t>(proc.pid) == ctl.pid) {
                    ::kill(proc.pid, SIGKILL);
                    ++out.kills;
                    break;
                }
            }
            if (queue.reclaimExpired(i, now))
                ++out.reclaims;
        }

        if (queue.complete()) {
            // Completion barrier: every Done cell must be backed by
            // a CRC-valid record. A corrupted publish gets demoted
            // back to Pending (or Failed past the budget).
            for (const auto &proc : procs)
                harvestOne(proc, records, out);
            bool demoted = false;
            for (size_t i = 0; i < n; ++i) {
                if (queue.load(i).state != CellState::Done)
                    continue;
                if (records.count(fps[i]))
                    continue;
                if (queue.demoteUnpublished(i)) {
                    ++out.demotions;
                    demoted = true;
                }
            }
            if (!demoted)
                break;
        }

        // Respawn while claimable work outlives the worker pool.
        size_t live = 0;
        for (const auto &proc : procs)
            live += proc.alive ? 1 : 0;
        size_t open =
            n - queue.doneCount() - queue.failedCount();
        size_t want = std::min<size_t>(workers, open);
        if (live < want) {
            if (spawns < spawn_cap) {
                if (spawnWorker())
                    ++out.respawns;
            } else if (live == 0) {
                // Fork keeps failing (or a pathological respawn
                // storm): fail the remaining cells rather than
                // spin forever.
                for (size_t i = 0; i < n; ++i) {
                    SlotCtl ctl = queue.load(i);
                    if (ctl.state == CellState::Pending ||
                        ctl.state == CellState::Leased)
                        queue.reclaimExpired(i, UINT64_MAX);
                }
                break;
            }
        }

        // Wake for the next pass when a worker exits (the queue
        // completed, or a worker died) or after poll_ms, so lease
        // reclaim and respawn still run at that cadence.
        waitForExit(procs, poll_ms);
    }

    // Drain: give workers a moment to publish and exit; SIGKILL
    // wedged stragglers (e.g. a SIGSTOPped worker whose cell was
    // stolen).
    queue.requestShutdown();
    const uint64_t grace_end = monotonicMs() + 500;
    for (;;) {
        reap();
        bool any = false;
        for (const auto &proc : procs)
            any = any || proc.alive;
        const uint64_t now = monotonicMs();
        if (!any || now >= grace_end)
            break;
        waitForExit(procs, std::min(poll_ms, grace_end - now));
    }
    for (auto &proc : procs) {
        if (!proc.alive)
            continue;
        ::kill(proc.pid, SIGKILL);
        ++out.kills;
        ::waitpid(proc.pid, nullptr, 0);
        proc.alive = false;
    }

    // Final harvest (clean exits renamed .part -> .spill).
    for (const auto &proc : procs)
        harvestOne(proc, records, out);

    // Assemble the outcome: a valid record is the truth for its
    // cell; a cell without one exhausted its budget, or was never
    // claimed because every worker died first (FAILED).
    for (size_t i = 0; i < n; ++i) {
        auto it = records.find(fps[i]);
        if (it != records.end()) {
            const SpillRecord &record = it->second;
            out.results[i] = record.stats;
            out.meta[i].run_id = record.run_id;
            out.meta[i].worker_pid = record.worker_pid;
            out.meta[i].attempts = record.attempts;
            if (record.run_id == out.run_id)
                ++out.simulated;
            continue;
        }
        const unsigned attempts = queue.load(i).attempts;
        const std::string why =
            attempts == 0
                ? "never claimed (every worker exited before "
                  "claiming it)"
                : "retry budget exhausted (" + std::to_string(attempts) +
                      " attempts; worker killed, hung, or its result "
                      "was rejected)";
        out.failures.push_back(
            {i, cells[i].describe() + ": " + why, attempts});
    }

    // Retire this run's transient files.
    for (const auto &proc : procs) {
        ::unlink(proc.part.c_str());
        ::unlink(proc.spill.c_str());
    }
    queue.unlinkFile();

    if (ephemeral) {
        // Nobody looks in a per-pid scratch dir again; remove it.
        if (DIR *d = ::opendir(dir.c_str())) {
            while (struct dirent *entry = ::readdir(d)) {
                std::string name = entry->d_name;
                if (name == "." || name == "..")
                    continue;
                ::unlink((dir + "/" + name).c_str());
            }
            ::closedir(d);
        }
        ::rmdir(dir.c_str());
    }
    return out;
}

} // namespace fvc::fabric
