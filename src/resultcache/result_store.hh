/**
 * @file
 * The persistent, content-keyed result store: one CRC-framed file
 * mapping cell fingerprints to finished 17-counter result records.
 *
 * A record's key is fabric::cellFingerprint — profile content hash,
 * trace parameters (generator version included), DMC/FVC geometry,
 * protocol policy — so equal fingerprints mean byte-identical
 * simulation output, across runs and machines. This is the only
 * durable result store: resuming an interrupted fabric sweep is a
 * warm serve from it (see repository.hh).
 *
 * Durability follows the trace-store/fabric idioms via util/framed:
 * every record is an independent CRC frame (one flipped bit costs
 * one record, which regenerates and self-heals on the next
 * publish), a torn tail drops only the last record, and publishes
 * go through temp + fsync + rename so readers never observe a
 * partial store and concurrent publishers each install a
 * self-consistent snapshot.
 *
 * The store is size-capped (FVC_RESULT_CACHE_MB): when the merged
 * record set exceeds the cap, admission keeps the records whose
 * simulation cost is highest — Flashield's principle of protecting
 * the expensive backing tier (here, the simulator: a big-trace,
 * big-geometry cell is worth far more cache bytes than a cell that
 * replays in milliseconds, since every record costs the same 168
 * bytes).
 */

#ifndef FVC_RESULTCACHE_RESULT_STORE_HH_
#define FVC_RESULTCACHE_RESULT_STORE_HH_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "fabric/spill.hh"
#include "util/error.hh"

namespace fvc::resultcache {

/** Result-store frame magic ("FVRC"). */
constexpr uint32_t kResultMagic = 0x43525646;

/** Frame kind of one result record. */
constexpr uint32_t kKindResult = 1;

/** Store file extension (also the warm/cold probe pattern). */
inline constexpr const char *kResultExtension = ".fvrc";

/** Record payload: fingerprint u64 | cost u64 | 17 stats u64. */
constexpr size_t kResultPayloadBytes = 8 + 8 + fabric::kCellStatsBytes;

/** On-disk bytes of one record, frame head included. */
constexpr size_t kResultRecordBytes =
    util::kFrameHeadBytes + kResultPayloadBytes;

/** One cached cell result. */
struct ResultRecord
{
    /** fabric::cellFingerprint of the cell that produced it. */
    uint64_t fingerprint = 0;
    /** Deterministic simulation-cost estimate (admission rank). */
    uint64_t cost = 0;
    fabric::CellStats stats;
};

/** Everything salvageable from one store file. */
struct ResultFileContents
{
    std::vector<ResultRecord> records;
    /** Frames dropped for bad magic/CRC/length/shape. */
    uint64_t rejected_frames = 0;
    /** The file ended mid-frame (crash while publishing). */
    bool truncated_tail = false;
};

/** Serialize one record's payload (canonical byte order). */
std::vector<uint8_t> encodeResultPayload(const ResultRecord &record);

/** Read every salvageable record of @p path. Errors only when the
 * file cannot be opened/mapped — corrupt records degrade to
 * rejected_frames, never to a hard failure. */
util::Expected<ResultFileContents>
readResultFile(const std::string &path);

/**
 * Merge @p records into the store at @p path and publish it
 * atomically. Existing valid records are read first and win over
 * new ones with the same fingerprint (first-wins), so concurrent
 * publishers of one key converge on the earliest published record.
 * When the merged set would exceed
 * @p cap_bytes, the cheapest records are dropped (cost descending,
 * fingerprint ascending on ties — fully deterministic). A corrupt
 * or torn existing file contributes its surviving records and is
 * healed wholesale by the rewrite.
 */
std::optional<util::Error>
publishResults(const std::string &path,
               const std::vector<ResultRecord> &records,
               uint64_t cap_bytes);

} // namespace fvc::resultcache

#endif // FVC_RESULTCACHE_RESULT_STORE_HH_
