/**
 * @file
 * ResultRepository: the warm-serve layer in front of the simulation
 * engine. Benches hand it their whole cell list; it deduplicates
 * identical cells within the sweep, serves every fingerprint the
 * persistent store already holds, and dispatches only the remaining
 * novel cells into the existing engines — the process fabric when
 * FVC_WORKERS is set, the grouped single-pass MultiConfigSimulator
 * when enabled, the per-cell thread sweep otherwise. Results are a
 * pure function of the cell spec, so a warm serve is byte-identical
 * to a fresh simulation and the rendered figures cannot tell the
 * difference.
 *
 * Resume is a warm serve too: when FVC_FABRIC_DIR is set and the
 * store is writable, runCells first reads the spills that dead
 * fabric workers left there (a killed sweep), serves their records
 * as store hits, publishes them with the fresh results, and removes
 * the spills only once that publish succeeded.
 *
 * Environment (mirroring the trace store's knobs):
 *  - FVC_RESULT_DIR: store directory; unset disables the cache.
 *  - FVC_RESULT_CACHE: "on"/"1" (default when the dir is set),
 *    "off"/"0", or "readonly" (serve hits, never publish).
 *  - FVC_RESULT_CACHE_MB: store size cap in megabytes
 *    (strict-parsed; unset = unbounded). Admission keeps the most
 *    expensive cells (see result_store.hh).
 *  - FVC_RESULT_EXPECT_WARM: any dispatched simulation is a hard
 *    failure — the zero-simulation acceptance gate.
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

namespace fvc::resultcache {

/** Result-cache mode, from FVC_RESULT_DIR + FVC_RESULT_CACHE. */
enum class ResultMode {
    Disabled,
    ReadWrite,
    ReadOnly,
};

/** The active mode (env read per call; tests toggle it). */
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

/** FVC_RESULT_CACHE_MB in bytes; UINT64_MAX when unbounded. */
uint64_t resultCapBytes();

/**
 * Deterministic simulation-cost estimate of one cell: trace length
 * times a replay-work factor for the attached structures, plus a
 * geometry term. Only relative order matters (admission ranking).
 */
uint64_t cellCost(const fabric::CellSpec &cell);

/**
 * The shared warm-serve layer. Thread-safe at the granularity
 * benches use it (one runCells call per sweep).
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
