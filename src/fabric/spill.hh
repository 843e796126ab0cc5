/**
 * @file
 * CRC-framed result spill files: the fabric's worker-to-coordinator
 * channel.
 *
 * A worker streams one self-delimiting frame per finished cell into
 * its own spill file ("w<id>-<pid>.part"); a clean exit renames it
 * to ".spill" (atomic publish). Because every frame carries its own
 * length and CRC32, a file truncated by SIGKILL mid-write loses
 * exactly the torn tail frame — every earlier record still merges —
 * and a corrupted frame is rejected rather than trusted, which
 * requeues its cell.
 *
 * Records are keyed by the cell's durable fingerprint and stamped
 * with the run_id that produced them. The coordinator deletes its
 * spills after merging them; the spills of a killed run stay in
 * the fabric directory until the result repository harvests them
 * into the result store (fabric::harvestDeadSpills).
 *
 * All decode paths return util::Expected / structured errors —
 * corrupt robustness-layer state must degrade, not abort.
 */

#ifndef FVC_FABRIC_SPILL_HH_
#define FVC_FABRIC_SPILL_HH_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "cache/stats.hh"
#include "core/dmc_fvc_system.hh"
#include "util/error.hh"
#include "util/framed.hh"

namespace fvc::fabric {

/** The 16 counters + occupancy_sum of one finished cell. */
struct CellStats
{
    cache::CacheStats cache;
    core::FvcStats fvc;

    /** Byte-exact equality (occupancy_sum compared by bit pattern,
     * like the oracle does). */
    bool identical(const CellStats &other) const;
};

/** One published result record. */
struct SpillRecord
{
    /** Submission index of the cell within its sweep. */
    uint32_t cell_index = 0;
    /** Attempt number that produced this result (1 = first try). */
    uint32_t attempts = 0;
    /** Durable cell identity (fabric::cellFingerprint). */
    uint64_t fingerprint = 0;
    /** Coordinator run that simulated this record. */
    uint64_t run_id = 0;
    /** Worker pid that simulated it. */
    uint32_t worker_pid = 0;
    CellStats stats;
};

/** A spill file's header frame (identifies the producing run). */
struct SpillHeader
{
    uint64_t run_id = 0;
    uint32_t worker_pid = 0;
    uint32_t worker_id = 0;
};

/** Everything readable from one spill file. */
struct SpillContents
{
    std::optional<SpillHeader> header;
    std::vector<SpillRecord> records;
    /** Frames dropped for bad magic/CRC/length (corruption), not
     * counting a torn tail, which is expected after a crash. */
    uint64_t rejected_frames = 0;
    /** The file ended mid-frame (crash while appending). */
    bool truncated_tail = false;
};

/** Serialize one record's payload (used for byte-exact compares). */
std::vector<uint8_t> encodeRecordPayload(const SpillRecord &record);

/** Number of bytes encodeCellStats appends (17 u64 fields). */
constexpr size_t kCellStatsBytes = 17 * 8;

/** Append the canonical 17-u64 serialization of @p stats
 * (occupancy_sum as its bit pattern) to @p out. Shared by the
 * spill format and the persistent result cache so the two can
 * never disagree about what a result *is*. */
void encodeCellStats(std::vector<uint8_t> &out,
                     const CellStats &stats);

/** Decode kCellStatsBytes at @p p; returns the advanced cursor. */
const uint8_t *decodeCellStats(const uint8_t *p, CellStats &stats);

/**
 * Append-only spill writer. Each frame is written with a single
 * write(2) and fsync'd, so a record either exists completely and
 * durably or fails its CRC at merge.
 */
class SpillWriter
{
  public:
    /** Open (create/append) @p path and write the header frame. */
    static util::Expected<SpillWriter>
    open(const std::string &path, const SpillHeader &header);

    SpillWriter() = default;

    bool valid() const { return appender_.valid(); }
    const std::string &path() const { return appender_.path(); }

    /**
     * Append one record frame. @p corrupt_payload_bit, when set,
     * flips that bit of the payload *after* the CRC is computed —
     * the deterministic corrupt-spill fault injection point.
     */
    std::optional<util::Error>
    append(const SpillRecord &record,
           std::optional<uint32_t> corrupt_payload_bit =
               std::nullopt);

    /** Close the descriptor (destructor does this too). */
    void close() { appender_.close(); }

  private:
    util::FramedAppender appender_;
};

/** Read every frame of @p path, tolerating a torn tail. */
util::Expected<SpillContents> readSpillFile(const std::string &path);

} // namespace fvc::fabric

#endif // FVC_FABRIC_SPILL_HH_
