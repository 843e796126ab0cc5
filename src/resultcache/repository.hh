/**
 * @file
 * ResultRepository: the warm-serve layer in front of the simulation
 * engine. Benches hand it their whole cell list; it deduplicates
 * identical cells within the sweep, serves every fingerprint the
 * persistent store already holds, and dispatches only the remaining
 * novel cells. Under FVC_WORKERS each novel cell goes to the process
 * fabric as its own queue slot. Otherwise the thread pool runs one
 * dispatch plan (planDispatch) as one sweep: a unit per lane group
 * (the lane-eligible cells of one trace, replayed together by the
 * MultiConfigSimulator lane kernel) and a unit per other cell (the
 * per-cell full model), the costliest lane groups split while the
 * pool would idle, longest units first. Results are a pure function
 * of the cell spec — not of which cells share a simulator — so a
 * warm serve and any plan are byte-identical to a fresh simulation
 * and the rendered figures cannot tell the difference.
 *
 * Resume is a warm serve too: when FVC_FABRIC_DIR is set and the
 * store is writable, runCells first reads the spills that dead
 * fabric workers left there (a killed sweep), serves their records
 * as store hits, publishes them with the fresh results, and removes
 * the spills only once that publish succeeded.
 *
 * Environment (the trace store's knobs, mirrored; EXPERIMENTS.md's
 * knob table has the values): FVC_RESULT_DIR names the store (unset
 * disables the cache), FVC_RESULT_CACHE picks on, off or readonly
 * (serve hits, never publish), FVC_RESULT_CACHE_MB caps the store
 * (admission keeps the most expensive cells, see result_store.hh),
 * and FVC_RESULT_EXPECT_WARM makes any dispatched simulation a hard
 * failure — the zero-simulation acceptance gate.
 */

#ifndef FVC_RESULTCACHE_REPOSITORY_HH_
#define FVC_RESULTCACHE_REPOSITORY_HH_

#include <atomic>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "fabric/cell.hh"
#include "fabric/spill.hh"
#include "util/knobs.hh"

namespace fvc::resultcache {

/** Result-cache mode, from FVC_RESULT_DIR + FVC_RESULT_CACHE. */
using ResultMode = util::StoreMode;

/** The active mode: Disabled without a store directory. */
ResultMode resultMode();

/** FVC_RESULT_DIR, or empty when unset. */
std::string resultDir();

/** Path of the consolidated store file ("results.fvrc"). */
std::string resultFilePath();

/**
 * The state recorded in bench JSON context: "off" (no cache),
 * "cold" (cache enabled, no store file yet), or "warm" (a store
 * file exists). compare_bench.py refuses to compare runs whose
 * states differ — a warm run measures the cache, not the engine.
 */
const char *resultCacheStateName();

/** FVC_RESULT_CACHE_MB in bytes (at most UINT64_MAX / 2^20 MB);
 * UINT64_MAX when unbounded. */
uint64_t resultCapBytes();

/**
 * Deterministic simulation-cost estimate of one cell: trace length
 * times a replay-work factor for the attached structures, plus a
 * geometry term. Only relative order matters: it ranks admission to
 * a size-capped store and orders the dispatch plan.
 */
uint64_t cellCost(const fabric::CellSpec &cell);

/** One job of the in-process dispatch plan. */
struct DispatchUnit
{
    /** Indices into the planned cell list. A lane unit's cells are
     * lane-eligible and share one trace; any other unit holds
     * exactly one cell. */
    std::vector<size_t> cells;
    /** Sum of cellCost over the cells. */
    uint64_t cost = 0;
    /** The cells' trace (fabric::cellTraceHash). */
    uint64_t trace = 0;
    /** Replayed by one MultiConfigSimulator; otherwise the cell
     * runs through fabric::simulateCell. */
    bool lane = false;
};

/**
 * The thread backend's plan for @p cells on a pool of @p threads.
 * A lane group — the write-back cells with no victim buffer or L2
 * that share one trace — becomes one unit, with its cells in
 * submission order; every other cell is a unit of its own. While
 * the plan holds fewer than 2 x threads units, the costliest lane
 * unit of at least 4 cells is split in two: its cells are ordered
 * by lane-group key (bare DMC first, then DMC+FVC by code width,
 * line size and associativity) and cut where the head holds
 * closest to half the cost. One thread never splits. Units then
 * run longest first (a stable sort, so ties keep submission order),
 * except that each trace's first unit moves ahead of every later
 * unit: on a cold trace store the units that generate traces start
 * before any unit that would wait for one. Deterministic in
 * (cells, threads); every index appears in exactly one unit.
 */
std::vector<DispatchUnit>
planDispatch(const std::vector<fabric::CellSpec> &cells,
             unsigned threads);

/**
 * The shared warm-serve layer. Thread-safe at the granularity
 * benches use it (one runCells call per sweep); serveStored may
 * run beside a runCells call, since a publish replaces the store
 * file by atomic rename and the counters are atomic.
 */
class ResultRepository
{
  public:
    /**
     * Resolve every cell: store hits are served without touching
     * the engine (or the trace repository), duplicates collapse to
     * one simulation, and only novel cells dispatch. Returns one
     * slot per cell in submission order; nullopt = FAILED (rendered
     * by the caller exactly like a failed sweep job). @p what names
     * the sweep in failure reports. New results are published to
     * the store unless the mode forbids it.
     */
    std::vector<std::optional<fabric::CellStats>>
    runCells(const std::vector<fabric::CellSpec> &cells,
             const std::string &what);

    /**
     * Serve @p cells from the persistent store alone, or not at
     * all: one result per cell in submission order when the store
     * holds every cell's fingerprint, nullopt when any cell would
     * need a simulation (or the cache is disabled). Never
     * simulates and never publishes. A served call counts every
     * cell — repeats included — as a store hit, exactly as
     * runCells counts a stored cell.
     */
    std::optional<std::vector<fabric::CellStats>>
    serveStored(const std::vector<fabric::CellSpec> &cells);

    /** Cells served from the persistent store. */
    uint64_t storeHits() const { return store_hits_; }

    /** Duplicate cells collapsed within sweeps. */
    uint64_t dedups() const { return dedups_; }

    /** Unique cells dispatched into a simulation engine. */
    uint64_t simulations() const { return simulations_; }

    /** Records published to the store by this repository. */
    uint64_t storeWrites() const { return store_writes_; }

    /** The process-wide repository. */
    static ResultRepository &shared();

  private:
    std::atomic<uint64_t> store_hits_{0};
    std::atomic<uint64_t> dedups_{0};
    std::atomic<uint64_t> simulations_{0};
    std::atomic<uint64_t> store_writes_{0};
};

/** Shorthand: resolve through the process-wide repository. */
std::vector<std::optional<fabric::CellStats>>
runCells(const std::vector<fabric::CellSpec> &cells,
         const std::string &what);

} // namespace fvc::resultcache

#endif // FVC_RESULTCACHE_REPOSITORY_HH_
