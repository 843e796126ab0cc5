/**
 * @file
 * Crash matrix for the multi-process sweep fabric: queue CAS
 * semantics, spill framing, dead-spill harvesting, and the
 * end-to-end contract that SIGKILL, SIGSTOP, corrupted spill
 * frames, and resume after a killed sweep (a warm serve through
 * the result repository) all converge to results byte-identical
 * to a serial run.
 *
 * Every fabric test uses its own mkdtemp directory (per-test
 * queue/spill state) and small traces; fault injection goes
 * through FVC_FAULT_SPEC exactly as a user would drive it.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include <dirent.h>
#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include "fabric/cell.hh"
#include "fabric/fabric.hh"
#include "fabric/queue.hh"
#include "fabric/spill.hh"
#include "resultcache/repository.hh"
#include "verify/fault_injector.hh"

#include "env_guard.hh"

namespace fb = fvc::fabric;
namespace fw = fvc::workload;
namespace fv = fvc::verify;

namespace {

using fvc::test::EnvGuard;
using fvc::test::ScopedEnv;
using fvc::test::TempDir;

// Small traces keep the whole matrix fast; determinism does not
// depend on trace length.
constexpr uint64_t kAccesses = 20000;

/** The standard matrix: 4 SPECint95 profiles x {DMC, DMC+FVC}. */
std::vector<fb::CellSpec>
matrixCells()
{
    const fw::SpecInt benches[] = {
        fw::SpecInt::Go099, fw::SpecInt::M88ksim124,
        fw::SpecInt::Compress129, fw::SpecInt::Perl134};
    std::vector<fb::CellSpec> cells;
    for (auto bench : benches) {
        fb::CellSpec cell;
        cell.bench = bench;
        cell.accesses = kAccesses;
        cell.dmc.size_bytes = 8 * 1024;
        cells.push_back(cell);
        cell.fvc.entries = 256;
        cell.fvc.line_bytes = cell.dmc.line_bytes;
        cell.fvc.code_bits = 3;
        cell.has_fvc = true;
        cells.push_back(cell);
    }
    return cells;
}

/** Serial reference: simulate each cell on the calling thread. */
std::vector<fb::CellStats>
serialReference(const std::vector<fb::CellSpec> &cells)
{
    std::vector<fb::CellStats> stats;
    for (const auto &cell : cells)
        stats.push_back(fb::simulateCell(cell));
    return stats;
}

fb::FabricOutcome
runFabric(const std::vector<fb::CellSpec> &cells,
          fb::FabricOptions options)
{
    fb::FabricRunner runner(std::move(options));
    for (const auto &cell : cells)
        runner.submit(cell);
    return runner.run();
}

/** Entries in /proc/self/fd: this process's open descriptors. */
size_t
openFdCount()
{
    size_t count = 0;
    if (DIR *d = ::opendir("/proc/self/fd")) {
        while (struct dirent *entry = ::readdir(d))
            count += entry->d_name[0] != '.';
        ::closedir(d);
    }
    return count;
}

void
expectMatchesSerial(
    const std::vector<std::optional<fb::CellStats>> &results,
    const std::vector<fb::CellStats> &serial)
{
    ASSERT_EQ(results.size(), serial.size());
    for (size_t i = 0; i < serial.size(); ++i) {
        ASSERT_TRUE(results[i].has_value())
            << "cell " << i << " missing";
        EXPECT_TRUE(results[i]->identical(serial[i]))
            << "cell " << i << " diverged from serial";
    }
}

/** The worker spill files in a fabric dir and the distinct cells
 * their valid records cover. */
struct SpillScan
{
    size_t files = 0;
    std::set<uint64_t> fingerprints;
};

SpillScan
scanSpills(const std::string &dir)
{
    SpillScan scan;
    DIR *d = ::opendir(dir.c_str());
    if (!d)
        return scan;
    while (struct dirent *entry = ::readdir(d)) {
        std::string name = entry->d_name;
        if (name[0] != 'w')
            continue;
        ++scan.files;
        auto contents = fb::readSpillFile(dir + "/" + name);
        if (!contents.ok())
            continue;
        for (const auto &record : contents.value().records)
            scan.fingerprints.insert(record.fingerprint);
    }
    ::closedir(d);
    return scan;
}

fb::SpillRecord
sampleRecord(uint32_t index, uint64_t fingerprint)
{
    fb::SpillRecord record;
    record.cell_index = index;
    record.attempts = 1;
    record.fingerprint = fingerprint;
    record.run_id = 7;
    record.worker_pid = 42;
    record.stats.cache.read_hits = 100 + index;
    record.stats.cache.read_misses = index;
    record.stats.fvc.occupancy_sum = 1.5 * index;
    record.stats.fvc.occupancy_samples = index;
    return record;
}

} // namespace

// --- queue unit tests -------------------------------------------

TEST(SharedQueueTest, ClaimDoneLifecycle)
{
    TempDir dir;
    std::vector<fb::CellSeed> seeds(3);
    for (size_t i = 0; i < seeds.size(); ++i)
        seeds[i] = {i, 100 + i};
    auto created = fb::SharedQueue::create(
        dir.file("queue-1.fvcq"), seeds, 3, 60000, 99);
    ASSERT_TRUE(created.ok()) << created.error().describe();
    fb::SharedQueue queue = std::move(created.value());

    EXPECT_EQ(queue.cellCount(), 3u);
    EXPECT_EQ(queue.runId(), 99u);
    EXPECT_EQ(queue.fingerprint(1), 101u);
    EXPECT_FALSE(queue.complete());

    EXPECT_TRUE(queue.tryClaim(0, 10));
    EXPECT_FALSE(queue.tryClaim(0, 11)); // already leased
    fb::SlotCtl ctl = queue.load(0);
    EXPECT_EQ(ctl.state, fb::CellState::Leased);
    EXPECT_EQ(ctl.pid, 10u);
    EXPECT_EQ(ctl.attempts, 1u);
    EXPECT_GT(queue.deadline(0), fb::monotonicMs());

    EXPECT_FALSE(queue.markDone(0, 11)); // not the owner
    EXPECT_TRUE(queue.markDone(0, 10));
    EXPECT_EQ(queue.load(0).state, fb::CellState::Done);
    EXPECT_EQ(queue.doneCount(), 1u);
}

TEST(SharedQueueTest, StealGuardsAgainstStaleOwner)
{
    TempDir dir;
    std::vector<fb::CellSeed> seeds(1);
    auto created = fb::SharedQueue::create(
        dir.file("queue-1.fvcq"), seeds, 5, 50, 1);
    ASSERT_TRUE(created.ok());
    fb::SharedQueue queue = std::move(created.value());

    ASSERT_TRUE(queue.tryClaim(0, 10));
    // Live lease: not stealable.
    EXPECT_FALSE(queue.trySteal(0, 11, fb::monotonicMs()));
    // Expired lease: stealable, attempts advance.
    const uint64_t later = queue.deadline(0) + 1;
    EXPECT_TRUE(queue.trySteal(0, 11, later));
    EXPECT_EQ(queue.load(0).pid, 11u);
    EXPECT_EQ(queue.load(0).attempts, 2u);
    // The original owner wakes up and tries to publish: the seq
    // bump makes its markDone fail (at-most-once publish).
    EXPECT_FALSE(queue.markDone(0, 10));
    EXPECT_TRUE(queue.markDone(0, 11));
}

TEST(SharedQueueTest, RetryBudgetDegradesToFailed)
{
    TempDir dir;
    std::vector<fb::CellSeed> seeds(1);
    auto created = fb::SharedQueue::create(
        dir.file("queue-1.fvcq"), seeds, 2, 50, 1);
    ASSERT_TRUE(created.ok());
    fb::SharedQueue queue = std::move(created.value());

    ASSERT_TRUE(queue.tryClaim(0, 10));
    auto state = queue.releaseFailed(0, 10);
    ASSERT_TRUE(state.has_value());
    EXPECT_EQ(*state, fb::CellState::Pending); // attempt 1 of 2
    ASSERT_TRUE(queue.tryClaim(0, 10));
    state = queue.releaseFailed(0, 10);
    ASSERT_TRUE(state.has_value());
    EXPECT_EQ(*state, fb::CellState::Failed); // budget exhausted
    EXPECT_EQ(queue.failedCount(), 1u);
    EXPECT_TRUE(queue.complete());
    // Budget-exhausted leases are not stealable either.
    EXPECT_FALSE(queue.tryClaim(0, 11));
}

TEST(SharedQueueTest, DemoteUnpublishedRequeuesDoneCell)
{
    TempDir dir;
    std::vector<fb::CellSeed> seeds(1);
    auto created = fb::SharedQueue::create(
        dir.file("queue-1.fvcq"), seeds, 3, 50, 1);
    ASSERT_TRUE(created.ok());
    fb::SharedQueue queue = std::move(created.value());

    ASSERT_TRUE(queue.tryClaim(0, 10));
    ASSERT_TRUE(queue.markDone(0, 10));
    auto state = queue.demoteUnpublished(0);
    ASSERT_TRUE(state.has_value());
    EXPECT_EQ(*state, fb::CellState::Pending);
    EXPECT_EQ(queue.load(0).attempts, 1u);
}

// --- spill unit tests -------------------------------------------

TEST(SpillTest, RoundTripsRecordsWithHeader)
{
    TempDir dir;
    const std::string path = dir.file("w0-1.part");
    fb::SpillHeader header{11, 33, 0};
    auto writer = fb::SpillWriter::open(path, header);
    ASSERT_TRUE(writer.ok()) << writer.error().describe();
    for (uint32_t i = 0; i < 3; ++i)
        ASSERT_FALSE(writer.value().append(sampleRecord(i, 500 + i))
                         .has_value());
    writer.value().close();

    auto contents = fb::readSpillFile(path);
    ASSERT_TRUE(contents.ok());
    ASSERT_TRUE(contents.value().header.has_value());
    EXPECT_EQ(contents.value().header->run_id, 11u);
    EXPECT_EQ(contents.value().header->worker_pid, 33u);
    ASSERT_EQ(contents.value().records.size(), 3u);
    EXPECT_EQ(contents.value().rejected_frames, 0u);
    EXPECT_FALSE(contents.value().truncated_tail);
    const auto &rec = contents.value().records[2];
    EXPECT_EQ(rec.cell_index, 2u);
    EXPECT_EQ(rec.fingerprint, 502u);
    EXPECT_TRUE(rec.stats.identical(sampleRecord(2, 502).stats));
}

TEST(SpillTest, ToleratesTornTailAfterCrash)
{
    TempDir dir;
    const std::string path = dir.file("w0-1.part");
    auto writer = fb::SpillWriter::open(path, {1, 3, 0});
    ASSERT_TRUE(writer.ok());
    ASSERT_FALSE(writer.value().append(sampleRecord(0, 500)));
    ASSERT_FALSE(writer.value().append(sampleRecord(1, 501)));
    writer.value().close();

    // SIGKILL mid-write: chop the last record in half.
    struct stat st;
    ASSERT_EQ(::stat(path.c_str(), &st), 0);
    ASSERT_EQ(::truncate(path.c_str(), st.st_size - 90), 0);

    auto contents = fb::readSpillFile(path);
    ASSERT_TRUE(contents.ok());
    EXPECT_TRUE(contents.value().truncated_tail);
    ASSERT_EQ(contents.value().records.size(), 1u);
    EXPECT_EQ(contents.value().records[0].fingerprint, 500u);
}

TEST(SpillTest, RejectsCorruptFrameButKeepsNeighbours)
{
    TempDir dir;
    const std::string path = dir.file("w0-1.part");
    auto writer = fb::SpillWriter::open(path, {1, 3, 0});
    ASSERT_TRUE(writer.ok());
    ASSERT_FALSE(writer.value().append(sampleRecord(0, 500)));
    // The deterministic fault-injection point: payload bit flipped
    // after the CRC was computed.
    ASSERT_FALSE(writer.value().append(sampleRecord(1, 501), 300));
    ASSERT_FALSE(writer.value().append(sampleRecord(2, 502)));
    writer.value().close();

    auto contents = fb::readSpillFile(path);
    ASSERT_TRUE(contents.ok());
    EXPECT_EQ(contents.value().rejected_frames, 1u);
    ASSERT_EQ(contents.value().records.size(), 2u);
    EXPECT_EQ(contents.value().records[0].fingerprint, 500u);
    EXPECT_EQ(contents.value().records[1].fingerprint, 502u);
}

// --- fault-spec parsing -----------------------------------------

TEST(FabricFaultSpecTest, ParsesFabricKeys)
{
    auto spec = fv::FaultSpec::parse(
        "kill_cell=3,hang_cell=5,corrupt_spill=7,sticky=1");
    ASSERT_TRUE(spec.ok()) << spec.error().describe();
    EXPECT_EQ(spec.value().kill_cell, 3u);
    EXPECT_EQ(spec.value().hang_cell, 5u);
    EXPECT_EQ(spec.value().corrupt_spill, 7u);
    EXPECT_TRUE(spec.value().sticky);
    // describe() round-trips through parse().
    auto again = fv::FaultSpec::parse(spec.value().describe());
    ASSERT_TRUE(again.ok());
    EXPECT_EQ(again.value().kill_cell, 3u);
    EXPECT_TRUE(again.value().sticky);

    EXPECT_FALSE(fv::FaultSpec::parse("kill_cell=x").ok());
    EXPECT_FALSE(fv::FaultSpec::parse("sticky=2").ok());
}

TEST(FabricEnvTest, StrictWorkerAndLeaseParsing)
{
    EnvGuard env;
    EXPECT_FALSE(fb::configuredWorkers().has_value());
    EnvGuard::set("FVC_WORKERS", "4");
    EXPECT_EQ(fb::configuredWorkers(), 4u);
    EnvGuard::set("FVC_WORKERS", "0");
    EXPECT_FALSE(fb::configuredWorkers().has_value());
    EnvGuard::set("FVC_WORKERS", "2x");
    EXPECT_FALSE(fb::configuredWorkers().has_value());
    EnvGuard::unset("FVC_WORKERS");

    EXPECT_EQ(fb::leaseMs(), 2000u);
    EnvGuard::set("FVC_LEASE_MS", "150");
    EXPECT_EQ(fb::leaseMs(), 150u);
    EnvGuard::set("FVC_LEASE_MS", "5"); // below the floor
    EXPECT_EQ(fb::leaseMs(), 2000u);
    EnvGuard::set("FVC_LEASE_MS", "soon");
    EXPECT_EQ(fb::leaseMs(), 2000u);
    EnvGuard::unset("FVC_LEASE_MS");

    EXPECT_FALSE(fb::fabricDirConfigured());
    EnvGuard::set("FVC_FABRIC_DIR", "/tmp/somewhere");
    EXPECT_TRUE(fb::fabricDirConfigured());
    EXPECT_EQ(fb::fabricDir(), "/tmp/somewhere");
}

// --- stale-file cleanup -----------------------------------------

TEST(FabricCleanupTest, HarvestsDeadPidSpillsAndDropsDeadQueues)
{
    TempDir dir;
    // A pid that cannot exist (beyond pid_max on any default
    // config): everything it "owns" is stale.
    const std::string dead = "399999999";
    const std::string live = std::to_string(::getpid());
    const std::string dead_queue = dir.file("queue-" + dead + ".fvcq");
    const std::string dead_spill = dir.file("w0-" + dead + ".part");
    const std::string live_spill = dir.file("w1-" + live + ".part");

    int fd = ::creat(dead_queue.c_str(), 0644);
    ASSERT_NE(fd, -1);
    ::close(fd);
    {
        auto writer =
            fb::SpillWriter::open(dead_spill, {9, 399999999, 0});
        ASSERT_TRUE(writer.ok());
        ASSERT_FALSE(writer.value().append(sampleRecord(0, 500)));
    }
    {
        auto writer = fb::SpillWriter::open(live_spill, {9, 1, 1});
        ASSERT_TRUE(writer.ok());
        ASSERT_FALSE(writer.value().append(sampleRecord(1, 501)));
    }

    // The harvest returns the dead worker's record and names its
    // file for removal; a live worker's spill is none of its
    // business.
    fb::DeadSpills harvest = fb::harvestDeadSpills(dir.path());
    ASSERT_EQ(harvest.records.size(), 1u);
    EXPECT_EQ(harvest.records[0].fingerprint, 500u);
    EXPECT_EQ(harvest.paths, std::vector<std::string>{dead_spill});

    // Cleanup drops the dead queue but keeps every spill: a dead
    // spill is resume state until its records are published.
    fb::cleanupStaleFabricFiles(dir.path());
    struct stat st;
    EXPECT_NE(::stat(dead_queue.c_str(), &st), 0);
    EXPECT_EQ(::stat(dead_spill.c_str(), &st), 0);
    EXPECT_EQ(::stat(live_spill.c_str(), &st), 0);
}

TEST(FabricCleanupTest, UnreapedWorkerCountsAsDead)
{
    // A killed run's orphaned workers can linger as zombies until
    // init reaps them; their spills must still be harvestable.
    TempDir dir;
    const pid_t zombie = ::fork();
    ASSERT_GE(zombie, 0);
    if (zombie == 0)
        ::_exit(0);
    siginfo_t info{};
    ASSERT_EQ(::waitid(P_PID, zombie, &info, WEXITED | WNOWAIT), 0);
    {
        auto writer = fb::SpillWriter::open(
            dir.file("w0-" + std::to_string(zombie) + ".part"),
            {9, static_cast<uint32_t>(zombie), 0});
        ASSERT_TRUE(writer.ok());
        ASSERT_FALSE(writer.value().append(sampleRecord(0, 600)));
    }
    fb::DeadSpills harvest = fb::harvestDeadSpills(dir.path());
    ::waitpid(zombie, nullptr, 0);
    ASSERT_EQ(harvest.records.size(), 1u);
    EXPECT_EQ(harvest.records[0].fingerprint, 600u);
}

// --- end-to-end crash matrix ------------------------------------

TEST(FabricTest, MatchesSerialAcrossWorkerCounts)
{
    auto cells = matrixCells();
    auto serial = serialReference(cells);
    // 0 is the default lease. At 8000 ms the heartbeat period
    // (lease/4) outlasts the coordinator's 500 ms drain grace, so a
    // worker whose heartbeat cannot be stopped gets SIGKILLed at
    // the end of a healthy run.
    for (uint64_t lease_ms : {uint64_t{0}, uint64_t{8000}}) {
        for (unsigned workers : {1u, 2u, 4u}) {
            SCOPED_TRACE("lease_ms=" + std::to_string(lease_ms) +
                         " workers=" + std::to_string(workers));
            TempDir dir;
            fb::FabricOptions options;
            options.workers = workers;
            options.lease_ms = lease_ms;
            options.dir = dir.path();
            const size_t fds = openFdCount();
            auto outcome = runFabric(cells, options);
            EXPECT_EQ(openFdCount(), fds) << "leaked a descriptor";
            EXPECT_TRUE(outcome.ok());
            EXPECT_TRUE(outcome.failures.empty());
            EXPECT_EQ(outcome.simulated, cells.size());
            expectMatchesSerial(outcome.results, serial);
            for (size_t i = 0; i < cells.size(); ++i)
                EXPECT_EQ(outcome.meta[i].run_id, outcome.run_id);
            // Fault-free: nobody hangs, dies, or outlives the drain.
            EXPECT_EQ(outcome.kills, 0u);
            EXPECT_EQ(outcome.reclaims, 0u);
            EXPECT_EQ(outcome.respawns, 0u);
        }
    }
}

TEST(FabricTest, SigkillMidCellIsStolenOrReclaimed)
{
    auto cells = matrixCells();
    auto serial = serialReference(cells);
    TempDir dir;
    ScopedEnv fault("FVC_FAULT_SPEC", "kill_cell=2");
    fb::FabricOptions options;
    options.workers = 2;
    options.lease_ms = 100;
    options.dir = dir.path();
    auto outcome = runFabric(cells, options);
    EXPECT_TRUE(outcome.ok());
    expectMatchesSerial(outcome.results, serial);
    // The record that survived is from the *second* attempt: the
    // first claimer died holding the lease.
    EXPECT_GE(outcome.meta[2].attempts, 2u);
}

TEST(FabricTest, DeadWorkerLeaseReclaimedAtReap)
{
    // The coordinator learns of a worker's death from its pidfd; the
    // dead worker's lease must be requeued then, not when the 8 s
    // lease expires.
    auto cells = matrixCells();
    auto serial = serialReference(cells);
    TempDir dir;
    ScopedEnv fault("FVC_FAULT_SPEC", "kill_cell=2");
    fb::FabricOptions options;
    options.workers = 2;
    options.lease_ms = 8000;
    options.dir = dir.path();
    const auto start = std::chrono::steady_clock::now();
    auto outcome = runFabric(cells, options);
    const auto elapsed = std::chrono::steady_clock::now() - start;
    EXPECT_TRUE(outcome.ok());
    expectMatchesSerial(outcome.results, serial);
    EXPECT_GE(outcome.reclaims, 1u);
    EXPECT_GE(outcome.meta[2].attempts, 2u);
    EXPECT_LT(elapsed, std::chrono::seconds(2));
}

TEST(FabricTest, SigstopHangIsKilledAndReclaimed)
{
    auto cells = matrixCells();
    auto serial = serialReference(cells);
    TempDir dir;
    ScopedEnv fault("FVC_FAULT_SPEC", "hang_cell=1");
    fb::FabricOptions options;
    options.workers = 1; // nobody to steal: the coordinator must
                         // SIGKILL the stopped worker and respawn
    options.lease_ms = 100;
    options.dir = dir.path();
    auto outcome = runFabric(cells, options);
    EXPECT_TRUE(outcome.ok());
    expectMatchesSerial(outcome.results, serial);
    EXPECT_GE(outcome.kills, 1u);
    EXPECT_GE(outcome.reclaims, 1u);
    EXPECT_GE(outcome.respawns, 1u);
    EXPECT_GE(outcome.meta[1].attempts, 2u);
}

TEST(FabricTest, SigstopHangIsStolenByPeerWorker)
{
    auto cells = matrixCells();
    auto serial = serialReference(cells);
    TempDir dir;
    ScopedEnv fault("FVC_FAULT_SPEC", "hang_cell=0");
    fb::FabricOptions options;
    options.workers = 3; // a peer steals the expired lease
    options.lease_ms = 100;
    options.dir = dir.path();
    auto outcome = runFabric(cells, options);
    EXPECT_TRUE(outcome.ok());
    expectMatchesSerial(outcome.results, serial);
    // The stopped worker never exits on its own; the coordinator
    // must have SIGKILLed it at drain (or at lease expiry).
    EXPECT_GE(outcome.kills, 1u);
    EXPECT_GE(outcome.meta[0].attempts, 2u);
}

TEST(FabricTest, CorruptSpillFrameIsRejectedAndRequeued)
{
    auto cells = matrixCells();
    auto serial = serialReference(cells);
    TempDir dir;
    ScopedEnv fault("FVC_FAULT_SPEC", "corrupt_spill=3");
    fb::FabricOptions options;
    options.workers = 2;
    options.lease_ms = 100;
    options.dir = dir.path();
    auto outcome = runFabric(cells, options);
    EXPECT_TRUE(outcome.ok());
    expectMatchesSerial(outcome.results, serial);
    // The corrupted frame was seen and refused, the Done cell was
    // demoted, and a clean re-run published the real record.
    EXPECT_GE(outcome.rejected_frames, 1u);
    EXPECT_GE(outcome.demotions, 1u);
    EXPECT_GE(outcome.meta[3].attempts, 2u);
}

TEST(FabricTest, StickyKillExhaustsRetryBudget)
{
    auto cells = matrixCells();
    auto serial = serialReference(cells);
    TempDir dir;
    ScopedEnv fault("FVC_FAULT_SPEC", "kill_cell=0,sticky=1");
    fb::FabricOptions options;
    options.workers = 1;
    options.lease_ms = 100;
    options.retries = 1; // 2 attempts total
    options.dir = dir.path();
    auto outcome = runFabric(cells, options);
    EXPECT_FALSE(outcome.ok());
    // The failures are the thread backend's JobFailure, rendered as
    // FAILED cells by harness::reportSweepFailures.
    ASSERT_EQ(outcome.failures.size(), 1u);
    EXPECT_EQ(outcome.failures[0].index, 0u);
    EXPECT_EQ(outcome.failures[0].attempts, 2u);
    EXPECT_NE(outcome.failures[0].message.find(
                  "retry budget exhausted"),
              std::string::npos);
    EXPECT_FALSE(outcome.results[0].has_value());
    // Degradation, not collapse: every other cell still finished
    // and matches serial.
    for (size_t i = 1; i < cells.size(); ++i) {
        ASSERT_TRUE(outcome.results[i].has_value());
        EXPECT_TRUE(outcome.results[i]->identical(serial[i]));
    }
}

TEST(FabricTest, ResumeSimulatesOnlyUnfinishedCells)
{
    auto cells = matrixCells();
    auto serial = serialReference(cells);
    TempDir fabric_dir;
    TempDir result_dir;
    ScopedEnv workers("FVC_WORKERS", "2");
    ScopedEnv fabric("FVC_FABRIC_DIR", fabric_dir.path());
    ScopedEnv results("FVC_RESULT_DIR", result_dir.path());

    // Run 1: a real crash. A forked child resolves the sweep; cell
    // 0 hangs under a long lease, so the sweep cannot finish on its
    // own, and the child's whole process group (coordinator and
    // workers) is SIGKILLed once 3 records are durable in spills.
    // As subreaper, this process reaps the orphaned workers too: an
    // unreaped pid would still look alive to the harvest.
    ASSERT_EQ(::prctl(PR_SET_CHILD_SUBREAPER, 1), 0);
    const pid_t child = ::fork();
    ASSERT_GE(child, 0);
    if (child == 0) {
        ::setpgid(0, 0);
        setenv("FVC_FAULT_SPEC", "hang_cell=0", 1);
        setenv("FVC_LEASE_MS", "60000", 1);
        fvc::resultcache::ResultRepository repo;
        repo.runCells(cells, "killed sweep");
        ::_exit(0);
    }
    ::setpgid(child, child);
    for (int ms = 0; ms < 60000; ms += 5) {
        if (scanSpills(fabric_dir.path()).fingerprints.size() >= 3)
            break;
        ::usleep(5000);
    }
    ::kill(-child, SIGKILL);
    while (::waitpid(-child, nullptr, 0) > 0) {
    }
    ::prctl(PR_SET_CHILD_SUBREAPER, 0);
    const size_t finished =
        scanSpills(fabric_dir.path()).fingerprints.size();
    ASSERT_GE(finished, 3u);
    ASSERT_LT(finished, cells.size()); // cell 0 never finished

    // Run 2: a warm serve. The dead spills' records are served as
    // store hits and only the rest is simulated; once published,
    // no dead spill is left behind.
    fvc::resultcache::ResultRepository run2;
    expectMatchesSerial(run2.runCells(cells, "resumed sweep"),
                        serial);
    EXPECT_EQ(run2.storeHits(), finished);
    EXPECT_EQ(run2.simulations(), cells.size() - finished);
    EXPECT_EQ(scanSpills(fabric_dir.path()).files, 0u);

    // Run 3: everything is in the store; any simulation would
    // abort the test under FVC_RESULT_EXPECT_WARM.
    ScopedEnv warm("FVC_RESULT_EXPECT_WARM", "1");
    fvc::resultcache::ResultRepository run3;
    expectMatchesSerial(run3.runCells(cells, "warm sweep"), serial);
    EXPECT_EQ(run3.simulations(), 0u);
    EXPECT_EQ(run3.storeHits(), cells.size());
}
