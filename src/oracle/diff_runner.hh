/**
 * @file
 * DiffRunner: the differential harness. It replays one
 * (trace, geometry, policy) cell through the protocol-literal
 * oracle (oracle_dmc_fvc.hh) and each production path, and reports
 * the first diverging access with the oracle's machine state.
 *
 * Production paths covered:
 *  - Serial: core::DmcFvcSystem, the full data-carrying model,
 *    compared access-by-access (lockstep).
 *  - LaneScalar: a one-cell sim::MultiConfigSimulator run pinned
 *    to the lane kernel's scalar ISA level; the kernel cannot be
 *    stepped, so only final stats are compared (a divergence here
 *    and not in Serial implicates the count-only lane protocol, the
 *    batch encoding or the block dispatch).
 *  - Simd: the same one-cell MultiConfigSimulator run pinned to the
 *    lane kernel at the best available ISA; final stats are
 *    compared (a divergence here and not in LaneScalar implicates
 *    the vector kernels).
 *  - MmapWarm: the trace is round-tripped through a v3 store file
 *    (saveTraceFile/loadTraceFile) and the mmap-backed view replayed
 *    through DmcFvcSystem; final stats are compared.
 *
 * Divergence reports are built from util::Table only — rendered
 * text is returned to the caller and CSV copies are written via
 * Table::exportCsv, which honors FVC_CSV_DIR and its strict-error
 * semantics. The runner itself never prints.
 */

#ifndef FVC_ORACLE_DIFF_RUNNER_HH_
#define FVC_ORACLE_DIFF_RUNNER_HH_

#include <optional>
#include <string>
#include <vector>

#include "harness/runner.hh"
#include "oracle/oracle_dmc_fvc.hh"

namespace fvc::oracle {

/** One production replay path. */
enum class Path {
    Serial,
    LaneScalar,
    Simd,
    MmapWarm,
};

/** All four paths, in lockstep-first order. */
const std::vector<Path> &allPaths();

/** Spelled-out path name for reports. */
const char *pathName(Path path);

/** One differential cell: the sweep coordinates under test. */
struct DiffCell
{
    cache::CacheConfig dmc;
    core::FvcConfig fvc;
    core::DmcFvcPolicy policy;

    /** e.g. "16Kb/32B/1-way + 512-entry FVC (7 values, 32B lines)". */
    std::string describe() const;
};

/** A detected oracle/production disagreement. */
struct Divergence
{
    Path path = Path::Serial;
    /**
     * Zero-based index of the diverging access among the trace's
     * load/store records, or SIZE_MAX when the divergence appears
     * only at flush / in final stats (non-steppable paths).
     */
    size_t access_index = 0;
    /** The diverging record (meaningful when access_index is set). */
    trace::MemRecord record;
    /** Name of the first differing stats field. */
    std::string field;
    /** Human-readable report (rendered tables). */
    std::string report;
};

/**
 * The differential harness. Stateless apart from its label, which
 * prefixes exported CSV names so concurrent runners don't clobber
 * each other's dumps.
 */
class DiffRunner
{
  public:
    explicit DiffRunner(std::string label = "oracle_diff");

    /**
     * Replay @p trace under @p cell through one production path.
     * @return the first divergence, or nullopt when the path agrees
     *         with the oracle bit-for-bit (all CacheStats and
     *         FvcStats fields, occupancy doubles compared by bits)
     */
    std::optional<Divergence>
    runPath(const harness::PreparedTrace &trace, const DiffCell &cell,
            Path path) const;

    /** runPath over all four paths; first divergence wins. */
    std::optional<Divergence>
    run(const harness::PreparedTrace &trace,
        const DiffCell &cell) const;

  private:
    std::string label_;

    std::optional<Divergence>
    runSerial(const harness::PreparedTrace &trace,
              const DiffCell &cell) const;
    /** Shared by LaneScalar and Simd: a one-cell lane-kernel run
     * pinned to @p path's ISA level. */
    std::optional<Divergence>
    runLane(const harness::PreparedTrace &trace,
            const DiffCell &cell, Path path) const;
    std::optional<Divergence>
    runMmapWarm(const harness::PreparedTrace &trace,
                const DiffCell &cell) const;

    /** Run the oracle over the whole trace (install, replay, flush). */
    static OracleDmcFvc oracleReplay(const harness::PreparedTrace &trace,
                                     const DiffCell &cell);

    Divergence makeDivergence(Path path, size_t access_index,
                              const trace::MemRecord &record,
                              const DiffCell &cell,
                              const OracleDmcFvc &oracle,
                              const cache::CacheStats &prod_stats,
                              const core::FvcStats &prod_fvc) const;
};

} // namespace fvc::oracle

#endif // FVC_ORACLE_DIFF_RUNNER_HH_
