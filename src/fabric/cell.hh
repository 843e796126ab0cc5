/**
 * @file
 * Fabric cells: durable, serializable sweep coordinates.
 *
 * The thread-backend SweepRunner takes closures; a crash-tolerant
 * process backend cannot, because a cell must be re-runnable by a
 * different process (after a worker dies) and recognizable across
 * whole runs (the result store). A CellSpec is
 * therefore plain data — profile identity, trace parameters, DMC
 * geometry, optional FVC geometry, protocol policy — and its
 * fingerprint is the same content-hash discipline the trace store
 * and golden manifest use: workload::profileFingerprint plus every
 * parameter simulation depends on, so two cells collide exactly
 * when they would produce byte-identical results.
 */

#ifndef FVC_FABRIC_CELL_HH_
#define FVC_FABRIC_CELL_HH_

#include <cstdint>
#include <string>
#include <vector>

#include "cache/config.hh"
#include "core/dmc_fvc_system.hh"
#include "core/fvc_cache.hh"
#include "fabric/spill.hh"
#include "workload/profile.hh"

namespace fvc::fabric {

/** One durable sweep cell: (profile, geometry, policy). */
struct CellSpec
{
    workload::SpecInt bench = workload::SpecInt::Go099;
    workload::InputSet input = workload::InputSet::Ref;
    /** SPECfp profile name; when non-empty it selects the modelled
     * FP workload instead of (bench, input). */
    std::string fp_name;
    /** Trace parameters (TraceKey fields). */
    uint64_t accesses = 0;
    uint64_t seed = 1;
    uint32_t top_k = 10;
    /** DMC geometry. */
    cache::CacheConfig dmc;
    /** FVC geometry; ignored when !has_fvc (bare-DMC cell). */
    core::FvcConfig fvc;
    bool has_fvc = false;
    core::DmcFvcPolicy policy;
    /** Victim-cache entries behind the DMC (Figure 15); 0 = none.
     * Mutually exclusive with has_fvc and has_l2. */
    uint32_t victim_entries = 0;
    /** L2 geometry behind the DMC; ignored when !has_l2. Mutually
     * exclusive with has_fvc and victim_entries. */
    cache::CacheConfig l2;
    bool has_l2 = false;

    /** e.g. "124.m88ksim 16Kb/32B/1-way + 512-entry FVC". */
    std::string describe() const;
};

/** The workload profile a cell replays (SPECint or SPECfp). */
workload::BenchmarkProfile cellProfile(const CellSpec &cell);

/**
 * Content fingerprint of one cell: profile content hash + trace
 * parameters (including the generator version, like TraceKey) +
 * geometry + policy. Equal fingerprints mean byte-identical
 * simulation results, so a result record keyed by this hash is safe
 * to reuse across runs and machines.
 */
uint64_t cellFingerprint(const CellSpec &cell);

/** The cell's trace-locality key (what TraceRepository keys the
 * trace by): equal values share a mapped trace. */
uint64_t cellTraceHash(const CellSpec &cell);

/**
 * Simulate one cell to completion and return its counters. Pure:
 * the result depends only on the spec (traces come from the shared
 * TraceRepository, which is content-keyed). This is the exact
 * computation the serial bench path performs — a DmcSystem replay
 * for bare-DMC cells, a DmcFvcSystem replay (frequent values
 * truncated to the encoding capacity) otherwise — so fabric output
 * merges byte-identical to serial output.
 */
CellStats simulateCell(const CellSpec &cell);

} // namespace fvc::fabric

#endif // FVC_FABRIC_CELL_HH_
