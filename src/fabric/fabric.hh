/**
 * @file
 * The crash-tolerant multi-process sweep fabric.
 *
 * FabricRunner is the process backend beside harness::SweepRunner's
 * thread pool: a coordinator forks FVC_WORKERS worker processes
 * that share one file-backed lease queue (queue.hh) and the
 * content-keyed trace store, simulate cells independently, and
 * stream results into CRC-framed spill files (spill.hh). The
 * robustness contract (DESIGN.md "Sweep fabric"):
 *
 *  - Every cell is leased, never given away: a worker that dies
 *    (SIGKILL, OOM), hangs (SIGSTOP, wedged loop), runs past the
 *    FVC_JOB_TIMEOUT_MS per-cell budget, or silently exits simply
 *    stops renewing its lease, and the cell is re-queued — stolen
 *    by an idle worker or reclaimed by the coordinator, which also
 *    SIGKILLs the stuck owner. (The thread backend has no such
 *    budget: a thread cannot be killed.)
 *  - Results publish at-most-once: a slot's steal-guard sequence
 *    number invalidates the loser's markDone, and duplicate or
 *    CRC-rejected records are discarded at merge.
 *  - Re-queues are bounded by the FVC_RETRIES budget; an exhausted
 *    cell degrades to a FAILED report (a harness::JobFailure),
 *    exactly like a failed job of harness::runDegraded.
 *  - The runner keeps no state across runs, and the merged output
 *    is byte-identical to a serial run regardless of worker count
 *    or crash schedule. Resuming an interrupted sweep is a warm
 *    serve from the result store: resultcache::ResultRepository
 *    reads the spills a killed run left in FVC_FABRIC_DIR
 *    (harvestDeadSpills), serves them as store hits and publishes
 *    them.
 */

#ifndef FVC_FABRIC_FABRIC_HH_
#define FVC_FABRIC_FABRIC_HH_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "fabric/cell.hh"
#include "fabric/queue.hh"
#include "fabric/spill.hh"
#include "harness/parallel.hh"

namespace fvc::fabric {

/**
 * FVC_WORKERS: process count for fabric sweeps (1..1024). nullopt
 * when unset or bad (bad warns) — benches fall back to the thread
 * backend in that case.
 */
std::optional<unsigned> configuredWorkers();

/** FVC_LEASE_MS: lease duration in ms (20..86,400,000; default
 * 2000). Short leases reclaim crashes faster but tolerate less
 * scheduling jitter before a false steal. */
uint64_t leaseMs();

/** FVC_RETRIES: extra attempts per cell (0..249; default 2). The
 * queue keeps attempts in a byte and caps the total at 250. */
unsigned sweepRetries();

/** FVC_JOB_TIMEOUT_MS: per-cell wall-clock budget in ms; 0 (the
 * default) disables it. A worker over budget stops renewing its
 * lease, so the coordinator kills it and re-queues the cell. */
uint64_t jobTimeoutMs();

/**
 * The fabric scratch directory: FVC_FABRIC_DIR when set (a stable
 * place where a killed run's spills can be found again), otherwise
 * a per-pid directory under the system temp dir that is removed
 * when the coordinator finishes. All queue and spill files inside
 * carry the owning pid in their name, so concurrent fabrics never
 * collide.
 */
std::string fabricDir();

/** True iff FVC_FABRIC_DIR was explicitly set. */
bool fabricDirConfigured();

/**
 * Delete the queue files in @p dir whose coordinator pid is gone.
 * Spill files are left alone: a dead worker's records are resume
 * state, collected by harvestDeadSpills. Called automatically by
 * FabricRunner::run().
 */
void cleanupStaleFabricFiles(const std::string &dir);

/** What a killed run left behind in a fabric directory. */
struct DeadSpills
{
    /** Every CRC-valid record, in file order (may repeat cells). */
    std::vector<SpillRecord> records;
    /** The spill files read; remove them once the records are
     * published somewhere durable. */
    std::vector<std::string> paths;
};

/**
 * Read the spill files in @p dir whose worker pid is gone. Their
 * records are finished cells of a run that never merged them; the
 * caller publishes them and only then removes @p paths. Spills of
 * live pids are skipped.
 */
DeadSpills harvestDeadSpills(const std::string &dir);

/** Provenance of one merged result. */
struct CellMeta
{
    /** Run that simulated the record. */
    uint64_t run_id = 0;
    uint32_t worker_pid = 0;
    /** Attempt number that produced the record. */
    uint32_t attempts = 0;
};

/** Everything one fabric run produced. */
struct FabricOutcome
{
    /** One slot per cell, submission order; nullopt = FAILED. */
    std::vector<std::optional<CellStats>> results;
    /** Cells that exhausted their retry budget, by index; rendered
     * by harness::reportSweepFailures like failed sweep jobs
     * (attempts is at least 1). */
    std::vector<harness::JobFailure> failures;
    /** Parallel to results; meaningful where results is engaged. */
    std::vector<CellMeta> meta;
    /** This coordinator run's id. */
    uint64_t run_id = 0;

    /** Always 0: the runner restores nothing (resume is a warm
     * serve from the result store). Kept because the gridbench
     * harness reports it as fabric.checkpoint_hits. */
    uint64_t checkpoint_hits = 0;
    /** Records produced by this run's workers. */
    uint64_t simulated = 0;
    /** Expired leases re-queued by the coordinator. */
    uint64_t reclaims = 0;
    /** Stuck worker processes SIGKILLed by the coordinator. */
    uint64_t kills = 0;
    /** Replacement workers forked after a death. */
    uint64_t respawns = 0;
    /** Spill frames rejected (bad CRC / torn tail / bad length). */
    uint64_t rejected_frames = 0;
    /** Done cells demoted because no valid record backed them. */
    uint64_t demotions = 0;

    bool ok() const { return failures.empty(); }
};

/** Knobs for one fabric run (tests override the env defaults). */
struct FabricOptions
{
    /** Worker process count; 0 = configuredWorkers() or 1. */
    unsigned workers = 0;
    /** Lease in ms; 0 = leaseMs(). */
    uint64_t lease_ms = 0;
    /** Extra attempts per cell; nullopt = sweepRetries(). (Max
     * attempts = retries + 1.) */
    std::optional<unsigned> retries;
    /** Scratch dir; empty = fabricDir(). */
    std::string dir;
};

/**
 * Collects cells and runs them across worker processes. Results
 * come back in submission order; every worker count and crash
 * schedule merges byte-identical because a cell's stats are a pure
 * function of its spec.
 */
class FabricRunner
{
  public:
    explicit FabricRunner(FabricOptions options = {});

    /** Queue one cell; returns its index in the result vector. */
    size_t submit(CellSpec cell);

    size_t pending() const { return cells_.size(); }

    /**
     * Fork the workers, supervise leases, merge results. The
     * runner is empty afterwards and can be reused.
     */
    FabricOutcome run();

  private:
    FabricOptions options_;
    std::vector<CellSpec> cells_;
};

namespace detail {

/** Worker-process entry point (called in the forked child; never
 * returns to the caller's logic — the child _exits). Exposed for
 * the fvc_fabric driver's --worker self-test mode. */
int runWorkerProcess(SharedQueue &queue,
                     const std::vector<CellSpec> &cells,
                     unsigned worker_id, const std::string &dir);

} // namespace detail

} // namespace fvc::fabric

#endif // FVC_FABRIC_FABRIC_HH_
