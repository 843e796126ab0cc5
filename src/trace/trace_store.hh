/**
 * @file
 * Persistent trace store, format v3: the one on-disk trace format,
 * a columnar layout that can be mmap()ed and replayed zero-copy.
 *
 * A store file holds the trace exactly the way the single-pass
 * engine consumes it — sim::ChunkedTrace's structure-of-arrays
 * chunks, one icount/addr/value/op column block per chunk — plus
 * everything else a PreparedTrace carries: the profiled frequent
 * values and the serialized initial/final FunctionalMemory images.
 * Loading needs no decode pass: a warm open maps the file read-only
 * and points span-backed columns straight into the mapping.
 *
 * Layout (all offsets 8-byte aligned, host-endian — the reader is
 * the same machine architecture that wrote the file; a foreign or
 * legacy file fails the magic/version check):
 *
 *     StoreHeader                      (fixed size)
 *     ChunkDirEntry[chunk_count]       {offset, records, crc}
 *     SectionDesc[3]                   frequent, init, final images
 *     frequent values                  u32[frequent_count]
 *     initial image                    memmodel serialization
 *     final image                      memmodel serialization
 *     chunk 0..N-1 column blocks       icount | addr | value | op
 *
 * Integrity: one metadata CRC covers the header + chunk directory +
 * section descriptors (with the CRC field zeroed); every section
 * and every chunk block carries its own CRC32 over its full padded
 * byte range. Between the CRCs and the file-size/offset-chain
 * checks, every byte of the file is covered: single-bit corruption
 * anywhere is detected at open() and reported as a structured
 * util::Error (exhaustively tested in tests/trace_store_test.cc).
 *
 * Atomicity: writers produce a private temp file in the target
 * directory and publish it with rename(2), so concurrent readers
 * and racing writers only ever observe absent or complete files.
 *
 * This layer knows nothing about sim/ or memmodel/ types — it moves
 * raw column pointers and opaque image byte blobs. The harness
 * (trace_repo.cc) glues it to PreparedTrace.
 */

#ifndef FVC_TRACE_TRACE_STORE_HH_
#define FVC_TRACE_TRACE_STORE_HH_

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "trace/record.hh"
#include "util/error.hh"
#include "util/mmap_file.hh"

namespace fvc::trace {

/** Magic bytes identifying a trace-store file ("FVCS"). */
inline constexpr uint32_t kStoreMagic = 0x46564353;
/** Store format version. */
inline constexpr uint32_t kStoreVersion = 3;
/** File extension of store files. */
inline constexpr const char *kStoreExtension = ".fvcs";

/** Fixed file header. Written verbatim (host-endian). */
struct StoreHeader
{
    uint32_t magic = kStoreMagic;
    uint32_t version = kStoreVersion;
    /** Total file size in bytes; must match the actual file. */
    uint64_t file_bytes = 0;
    uint64_t record_count = 0;
    uint64_t instruction_count = 0;
    /** The repository's 64-bit content key, for lookup checking. */
    uint64_t content_key = 0;
    /** Provenance: the profile content fingerprint. */
    uint64_t profile_hash = 0;
    /** Provenance: requested accesses. */
    uint64_t accesses = 0;
    /** Provenance: generator seed. */
    uint64_t seed = 0;
    uint32_t top_k = 0;
    /** workload::kGeneratorVersion at write time. */
    uint32_t generator_version = 0;
    /** Always 1: the generation shard count of earlier writers,
     * kept so the v3 layout does not move. */
    uint32_t gen_shards = 1;
    uint32_t frequent_count = 0;
    /** Records per full chunk (sim::kChunkRecords at write time). */
    uint64_t chunk_records = 0;
    uint64_t chunk_count = 0;
    /** NUL-padded workload name. */
    char name[32] = {};
    /**
     * CRC32 over the whole metadata region — this header, the chunk
     * directory, and the section descriptors — computed with this
     * field zeroed.
     */
    uint32_t meta_crc = 0;
    uint32_t reserved = 0;
};

static_assert(sizeof(StoreHeader) % 8 == 0,
              "store sections are 8-byte aligned");

/** Directory entry for one chunk's column block. */
struct ChunkDirEntry
{
    /** Byte offset of the block (8-aligned). */
    uint64_t offset = 0;
    /** Records in this chunk. */
    uint32_t records = 0;
    /** CRC32 over the block's full padded byte range. */
    uint32_t crc = 0;
};

/** Descriptor of one variable-size section. */
struct SectionDesc
{
    uint64_t offset = 0;
    /** Unpadded payload bytes. */
    uint64_t bytes = 0;
    /** CRC32 over the padded byte range. */
    uint32_t crc = 0;
    uint32_t reserved = 0;
};

/** One chunk's columns, as raw pointers (writer input). */
struct StoreChunkView
{
    const uint64_t *icount = nullptr;
    const Addr *addr = nullptr;
    const Word *value = nullptr;
    const uint8_t *op = nullptr;
    uint32_t records = 0;
};

/** Everything writeStore() needs besides the bulk data. */
struct StoreMeta
{
    std::string name;
    uint64_t instruction_count = 0;
    uint64_t content_key = 0;
    uint64_t profile_hash = 0;
    uint64_t accesses = 0;
    uint64_t seed = 0;
    uint32_t top_k = 0;
    uint32_t generator_version = 0;
    /** Records per full chunk (all chunks but the last). */
    uint64_t chunk_records = 0;
};

/**
 * Write a v3 store file: build the image in memory, write it to a
 * temp file next to @p path, fsync, and rename into place.
 * @return std::nullopt on success, the failure otherwise.
 */
std::optional<util::Error>
writeStore(const std::string &path, const StoreMeta &meta,
           const std::vector<StoreChunkView> &chunks,
           std::span<const Word> frequent_values,
           std::span<const uint8_t> initial_image,
           std::span<const uint8_t> final_image);

/**
 * A validated, opened store file. The column pointers and image
 * spans point into the mapping: keep the MappedStore alive for as
 * long as any of them is referenced.
 */
class MappedStore
{
  public:
    /**
     * Map and fully validate @p path: magic/version/size checks,
     * metadata CRC, and every section and chunk CRC. All failures
     * are structured errors — corrupt input never asserts.
     */
    static util::Expected<std::shared_ptr<const MappedStore>>
    open(const std::string &path);

    const StoreHeader &header() const { return *header_; }
    const std::vector<StoreChunkView> &chunks() const
    {
        return chunks_;
    }
    std::span<const Word> frequentValues() const { return frequent_; }
    std::span<const uint8_t> initialImage() const { return initial_; }
    std::span<const uint8_t> finalImage() const { return final_; }

  private:
    util::MappedFile file_;
    const StoreHeader *header_ = nullptr;
    std::vector<StoreChunkView> chunks_;
    std::span<const Word> frequent_;
    std::span<const uint8_t> initial_;
    std::span<const uint8_t> final_;
};

} // namespace fvc::trace

#endif // FVC_TRACE_TRACE_STORE_HH_
