/**
 * @file
 * SharedQueue: the fabric's file-backed work queue with lease-based
 * claiming.
 *
 * One mmap(MAP_SHARED) file carries a fixed header plus one 64-byte
 * slot per sweep cell. Every slot transition goes through a single
 * compare-and-swap on the slot's packed control word — state,
 * attempt count, a steal-guard sequence number, and the owning pid
 * all change atomically together — so a worker that was SIGKILLed,
 * SIGSTOPped, or simply outrun can never complete a cell someone
 * else has since reclaimed: its final CAS fails on the stale
 * sequence number and the duplicate result is discarded at merge.
 *
 * Clocks: lease deadlines are CLOCK_MONOTONIC milliseconds, which
 * is system-wide on Linux, so the coordinator and every worker
 * compare deadlines against the same clock without any calibration
 * handshake.
 *
 * The queue file is named with the coordinator's pid
 * ("queue-<pid>.fvcq") so concurrent fabrics in one FVC_FABRIC_DIR
 * never collide, and so a later coordinator can recognize (and
 * remove) a queue file whose owner is dead.
 */

#ifndef FVC_FABRIC_QUEUE_HH_
#define FVC_FABRIC_QUEUE_HH_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "util/error.hh"

namespace fvc::fabric {

/** Lifecycle of one sweep cell in the queue. */
enum class CellState : uint8_t {
    /** Unclaimed; any worker may lease it. */
    Pending = 0,
    /** Leased by ctl.pid until the slot's deadline. */
    Leased = 1,
    /** A CRC-valid result record was (reportedly) published. */
    Done = 2,
    /** Retry budget exhausted; reported as a FAILED cell. */
    Failed = 3,
};

/** Unpacked view of a slot's atomic control word. */
struct SlotCtl
{
    CellState state = CellState::Pending;
    /** Simulation attempts started so far (claims + steals). */
    uint8_t attempts = 0;
    /** Steal guard: bumped on every transition, so a CAS from a
     * stale observation always fails. */
    uint16_t seq = 0;
    /** Owning worker pid while Leased (0 otherwise). */
    uint32_t pid = 0;
};

/** Pack/unpack the control word. */
uint64_t packCtl(SlotCtl ctl);
SlotCtl unpackCtl(uint64_t word);

/** Current CLOCK_MONOTONIC time in milliseconds. */
uint64_t monotonicMs();

/** Per-cell constants the coordinator writes at creation time. */
struct CellSeed
{
    /** Locality key: workers prefer cells whose trace they map. */
    uint64_t profile_hash = 0;
    /** Durable cell identity (fabric::cellFingerprint). */
    uint64_t fingerprint = 0;
};

/**
 * The mmap-backed queue. Move-only; the coordinator creates it
 * before forking and workers inherit the mapping (MAP_SHARED, so
 * stores are visible across the fork in both directions).
 */
class SharedQueue
{
  public:
    /**
     * Create the queue file at @p path (truncating any stale one),
     * seed one slot per cell, and map it shared.
     *
     * @param retry_budget max attempts per cell before Failed
     * @param lease_ms     lease duration stamped by claims/renewals
     * @param run_id       this coordinator run's id (diagnostics)
     */
    static util::Expected<SharedQueue>
    create(const std::string &path,
           const std::vector<CellSeed> &cells, unsigned retry_budget,
           uint64_t lease_ms, uint64_t run_id);

    SharedQueue() = default;
    ~SharedQueue();
    SharedQueue(SharedQueue &&other) noexcept;
    SharedQueue &operator=(SharedQueue &&other) noexcept;
    SharedQueue(const SharedQueue &) = delete;
    SharedQueue &operator=(const SharedQueue &) = delete;

    bool valid() const { return base_ != nullptr; }
    const std::string &path() const { return path_; }
    size_t cellCount() const;
    unsigned retryBudget() const;
    uint64_t leaseMs() const;
    uint64_t runId() const;

    /** Atomically load slot @p i's control word. */
    SlotCtl load(size_t i) const;

    /** The slot's locality key (immutable after create). */
    uint64_t profileHash(size_t i) const;
    /** The slot's durable fingerprint (immutable after create). */
    uint64_t fingerprint(size_t i) const;

    /** The slot's lease deadline, monotonic ms (racy read; only
     * meaningful while the slot is Leased). */
    uint64_t deadline(size_t i) const;

    /**
     * Try to lease slot @p i: CAS Pending -> Leased(pid) and stamp
     * a fresh deadline. @return false if the slot changed under us.
     */
    bool tryClaim(size_t i, uint32_t pid);

    /**
     * Lease-based work stealing: take over a Leased slot whose
     * deadline has expired (owner crashed, hung, or stopped). The
     * attempt count advances — a steal is a new simulation attempt.
     * Refused (false) when the lease is live, the observed word
     * changed, or the retry budget is already exhausted (the
     * coordinator turns that case into Failed).
     */
    bool trySteal(size_t i, uint32_t pid, uint64_t now_ms);

    /** Renew the lease on a slot this pid owns (heartbeat). */
    void renewLease(size_t i, uint32_t pid, uint64_t deadline_ms);

    /**
     * Mark a leased slot Done. Fails (false) when the caller no
     * longer owns the slot — the cell was stolen or reclaimed, and
     * the caller's published record becomes a harmless duplicate.
     */
    bool markDone(size_t i, uint32_t pid);

    /**
     * Release a leased slot after an in-worker failure:
     * Leased(pid) -> Pending with attempts advanced, or Failed when
     * the budget is exhausted. @return the resulting state, or
     * nullopt when the caller no longer owned the slot.
     */
    std::optional<CellState> releaseFailed(size_t i, uint32_t pid);

    /**
     * Coordinator-side reclaim of an expired lease: -> Pending
     * (attempts advanced) or Failed past the budget. @return the
     * resulting state, or nullopt when the slot moved on its own.
     */
    std::optional<CellState> reclaimExpired(size_t i,
                                            uint64_t now_ms);

    /**
     * Coordinator-side demotion of a Done slot whose published
     * record turned out to be missing or CRC-invalid: -> Pending
     * (attempts advanced) or Failed past the budget.
     */
    std::optional<CellState> demoteUnpublished(size_t i);

    /** Cells currently Done or Failed (one linear scan each). */
    size_t doneCount() const;
    size_t failedCount() const;
    /** True iff every cell is Done or Failed. */
    bool complete() const;

    /** Cooperative-shutdown flag (set when the coordinator drains). */
    void requestShutdown();
    bool shutdownRequested() const;

    /** Unlink the backing file (mapping stays valid until dtor). */
    void unlinkFile();

  private:
    struct Header;
    struct Slot;

    Header *header() const;
    Slot *slot(size_t i) const;

    void *base_ = nullptr;
    size_t bytes_ = 0;
    std::string path_;
};

} // namespace fvc::fabric

#endif // FVC_FABRIC_QUEUE_HH_
