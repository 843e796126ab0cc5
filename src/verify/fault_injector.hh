/**
 * @file
 * FaultInjector: deterministic, seeded corruption of trace records,
 * trace-file bytes, memory images, and FVC state.
 *
 * Robustness paths are only trustworthy if they are exercised; the
 * injector makes "a corrupted input" a reproducible test fixture
 * instead of a hypothetical. Every decision flows from the spec's
 * seed through one util::Rng, so a given (spec, input) pair always
 * produces the same faults — a failing robustness test replays
 * exactly.
 *
 * The FVC_FAULT_SPEC environment variable carries a FaultSpec into
 * the harness: the sweep engine honours `sweep_job=N` (force the
 * N-th sweep job process-wide to throw); the record/byte/state
 * corruption methods are invoked explicitly by tests and tools.
 */

#ifndef FVC_VERIFY_FAULT_INJECTOR_HH_
#define FVC_VERIFY_FAULT_INJECTOR_HH_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/dmc_fvc_system.hh"
#include "memmodel/functional_memory.hh"
#include "trace/record.hh"
#include "util/error.hh"
#include "util/random.hh"

namespace fvc::verify {

/** Kinds of record-level faults, combinable as a bitmask. */
enum FaultKind : unsigned {
    /** Flip one bit of a record's value. */
    kFaultValueFlip = 1u << 0,
    /** Flip one bit of a record's address. */
    kFaultAddrFlip = 1u << 1,
    /** Rewrite the op (possibly to an out-of-range byte). */
    kFaultOpMutate = 1u << 2,
    /** Insert a duplicate of the record. */
    kFaultDuplicate = 1u << 3,
    /** Delete the record. */
    kFaultDrop = 1u << 4,
};

inline constexpr unsigned kFaultAllRecord =
    kFaultValueFlip | kFaultAddrFlip | kFaultOpMutate |
    kFaultDuplicate | kFaultDrop;

/** A parsed fault policy. */
struct FaultSpec
{
    /** Seed for every random choice the injector makes. */
    uint64_t seed = 1;
    /** Per-record (or per-byte) fault probability. */
    double rate = 0.0;
    /** FaultKind bitmask for record mutation. */
    unsigned kinds = kFaultAllRecord;
    /** Force the N-th sweep job submitted process-wide to throw. */
    std::optional<uint64_t> sweep_job;
    /** Fabric: SIGKILL the worker right before simulating the cell
     * with this submission index. */
    std::optional<uint64_t> kill_cell;
    /** Fabric: block the worker forever right before simulating
     * the cell with this submission index, holding its claim; only
     * the FVC_JOB_TIMEOUT_MS budget or a kill from outside ends it. */
    std::optional<uint64_t> hang_cell;
    /** Fabric: flip one bit of this cell's spill record payload
     * after its CRC is computed, so the published result is
     * rejected at merge and the cell re-queued. */
    std::optional<uint64_t> corrupt_spill;
    /** Fabric faults fire on every attempt instead of once per
     * fabric directory — retry-budget-exhaustion tests need the
     * fault to survive the re-queue. */
    bool sticky = false;

    /**
     * Parse "seed=42,rate=0.001,kinds=value|op|drop,sweep_job=5".
     * Fabric keys: kill_cell=N, hang_cell=N, corrupt_spill=N,
     * sticky=0|1 (see src/fabric/). Kind names: value, addr, op,
     * dup, drop, all. Unknown keys or malformed values are a
     * Format error, never ignored.
     */
    static util::Expected<FaultSpec> parse(const std::string &text);

    /** The FVC_FAULT_SPEC env var; nullopt when unset or empty.
     * A malformed spec is fatal: silently ignoring a typo'd fault
     * policy would un-test exactly what the user asked to test. */
    static std::optional<FaultSpec> fromEnv();

    std::string describe() const;
};

/** Applies a FaultSpec. Not thread-safe; one injector per thread. */
class FaultInjector
{
  public:
    explicit FaultInjector(const FaultSpec &spec);

    const FaultSpec &spec() const { return spec_; }

    /**
     * Mutate records in place per the spec's rate and kinds.
     * @return number of faults applied
     */
    uint64_t mutateRecords(std::vector<trace::MemRecord> &records);

    /**
     * Flip bits in a raw buffer: each byte is corrupted with
     * probability rate; at least one bit is flipped even when the
     * rate rounds to zero faults, so "corrupt this" always does.
     * @return number of bits flipped
     */
    uint64_t corruptBytes(uint8_t *data, size_t len);

    /**
     * Corrupt a file on disk, skipping the first @p skip_prefix
     * bytes (e.g. a header that corruption tests want intact).
     * @return bits flipped, or an Error for IO failures
     */
    util::Expected<uint64_t> corruptFile(const std::string &path,
                                         size_t skip_prefix = 0);

    /**
     * Flip one bit of one interesting word in @p memory (seeded
     * choice of word and bit).
     * @return false when the image has no interesting words
     */
    bool corruptMemoryWord(memmodel::FunctionalMemory &memory);

    /**
     * Corrupt FVC state: drop every valid FVC entry without writing
     * dirty data back, silently losing the newest values of
     * frequent-coded words.
     * @return number of dirty entries whose data was lost
     */
    uint64_t discardFvcState(core::DmcFvcSystem &system);

  private:
    FaultSpec spec_;
    util::Rng rng_;

    /** Pick one set kind from the spec's mask. */
    unsigned pickKind();
};

} // namespace fvc::verify

#endif // FVC_VERIFY_FAULT_INJECTOR_HH_
