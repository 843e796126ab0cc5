#include "trace/trace_store.hh"

#include <algorithm>
#include <array>
#include <cerrno>
#include <cstddef>
#include <cstdio>
#include <cstring>

#include <unistd.h>

#include "util/bitops.hh"
#include "util/crc32.hh"

namespace fvc::trace {

namespace {

using util::Error;
using util::ErrorCode;

/** Section descriptor count: frequent values, initial and final
 * image. */
constexpr size_t kSectionCount = 3;

size_t
pad8(size_t bytes)
{
    return static_cast<size_t>(util::alignUp(bytes, 8));
}

/** Unpadded bytes of one chunk's column block (17 B per record). */
size_t
chunkBlockBytes(size_t records)
{
    return records * (sizeof(uint64_t) + sizeof(Addr) +
                      sizeof(Word) + sizeof(uint8_t));
}

/**
 * CRC32 of the metadata region [0, meta_end) with the header's
 * meta_crc field treated as zero.
 */
uint32_t
metaCrc(const uint8_t *data, size_t meta_end)
{
    constexpr size_t field = offsetof(StoreHeader, meta_crc);
    const uint32_t zero = 0;
    uint32_t crc = util::crc32(data, field);
    crc = util::crc32(&zero, sizeof(zero), crc);
    crc = util::crc32(data + field + sizeof(zero),
                      meta_end - field - sizeof(zero), crc);
    return crc;
}

/** The largest of @p n bytes: a branch-free reduction, so it
 * vectorizes at -O3. Out of line, because GCC 12 does not vectorize
 * it once inlined into MappedStore::open. */
[[gnu::noinline]] uint8_t
maxByte(const uint8_t *bytes, size_t n)
{
    uint8_t top = 0;
    for (size_t i = 0; i < n; ++i)
        top = std::max(top, bytes[i]);
    return top;
}

/** Every section and chunk block ends in zeros up to 8 bytes. */
constexpr uint8_t kZeroPad[8] = {};

template <typename T>
std::span<const uint8_t>
bytesOf(const T *data, size_t count)
{
    return {reinterpret_cast<const uint8_t *>(data),
            count * sizeof(T)};
}

/** One section or chunk block as the writer sees it: the source
 * spans of its payload in file order, then its zero padding. */
struct Block
{
    std::array<std::span<const uint8_t>, 4> parts{};

    size_t
    bytes() const
    {
        size_t total = 0;
        for (auto part : parts)
            total += part.size();
        return total;
    }

    size_t pad() const { return pad8(bytes()) - bytes(); }

    /** CRC32 over the block's full padded byte range. */
    uint32_t
    crc() const
    {
        uint32_t crc = 0;
        for (auto part : parts)
            crc = util::crc32(part.data(), part.size(), crc);
        return util::crc32(kZeroPad, pad(), crc);
    }
};

} // namespace

std::optional<util::Error>
writeStore(const std::string &path, const StoreMeta &meta,
           const std::vector<StoreChunkView> &chunks,
           std::span<const Word> frequent_values,
           std::span<const uint8_t> initial_image,
           std::span<const uint8_t> final_image)
{
    // ---- the blocks, in file order -----------------------------------
    std::vector<Block> blocks(kSectionCount + chunks.size());
    blocks[0].parts[0] =
        bytesOf(frequent_values.data(), frequent_values.size());
    blocks[1].parts[0] = initial_image;
    blocks[2].parts[0] = final_image;
    uint64_t record_count = 0;
    for (size_t i = 0; i < chunks.size(); ++i) {
        const StoreChunkView &chunk = chunks[i];
        const size_t n = chunk.records;
        blocks[kSectionCount + i].parts = {
            bytesOf(chunk.icount, n), bytesOf(chunk.addr, n),
            bytesOf(chunk.value, n), bytesOf(chunk.op, n)};
        record_count += n;
    }

    // ---- metadata: offsets and CRCs, chained over the sources --------
    const size_t meta_end = sizeof(StoreHeader) +
                            chunks.size() * sizeof(ChunkDirEntry) +
                            kSectionCount * sizeof(SectionDesc);
    SectionDesc descs[kSectionCount];
    std::vector<ChunkDirEntry> dir(chunks.size());
    size_t off = meta_end;
    for (size_t b = 0; b < blocks.size(); ++b) {
        const uint32_t crc = blocks[b].crc();
        if (b < kSectionCount) {
            descs[b].offset = off;
            descs[b].bytes = blocks[b].bytes();
            descs[b].crc = crc;
        } else {
            ChunkDirEntry &entry = dir[b - kSectionCount];
            entry.offset = off;
            entry.records = chunks[b - kSectionCount].records;
            entry.crc = crc;
        }
        off += pad8(blocks[b].bytes());
    }

    StoreHeader header;
    header.file_bytes = off;
    header.record_count = record_count;
    header.instruction_count = meta.instruction_count;
    header.content_key = meta.content_key;
    header.profile_hash = meta.profile_hash;
    header.accesses = meta.accesses;
    header.seed = meta.seed;
    header.top_k = meta.top_k;
    header.generator_version = meta.generator_version;
    header.frequent_count =
        static_cast<uint32_t>(frequent_values.size());
    header.chunk_records = meta.chunk_records;
    header.chunk_count = chunks.size();
    std::strncpy(header.name, meta.name.c_str(),
                 sizeof(header.name) - 1);

    std::vector<uint8_t> head(meta_end);
    std::memcpy(head.data(), &header, sizeof(header));
    std::memcpy(head.data() + sizeof(StoreHeader), dir.data(),
                dir.size() * sizeof(ChunkDirEntry));
    std::memcpy(head.data() + sizeof(StoreHeader) +
                    dir.size() * sizeof(ChunkDirEntry),
                descs, sizeof(descs));
    const uint32_t crc = metaCrc(head.data(), meta_end);
    std::memcpy(head.data() + offsetof(StoreHeader, meta_crc), &crc,
                sizeof(crc));

    // ---- write temp + fsync + rename (atomic publish) ----------------
    const std::string tmp =
        path + ".tmp." + std::to_string(::getpid());
    std::FILE *f = std::fopen(tmp.c_str(), "wb");
    if (!f) {
        return Error{ErrorCode::Io,
                     std::string("open for write failed: ") +
                         std::strerror(errno),
                     tmp};
    }
    auto put = [f](const void *data, size_t bytes) {
        return bytes == 0 || std::fwrite(data, 1, bytes, f) == bytes;
    };
    bool ok = put(head.data(), head.size());
    for (const Block &block : blocks) {
        for (auto part : block.parts)
            ok = ok && put(part.data(), part.size());
        ok = ok && put(kZeroPad, block.pad());
    }
    ok = ok && std::fflush(f) == 0;
    ok = ok && ::fsync(::fileno(f)) == 0;
    ok = std::fclose(f) == 0 && ok;
    if (!ok) {
        ::unlink(tmp.c_str());
        return Error{ErrorCode::Io,
                     std::string("write failed: ") +
                         std::strerror(errno),
                     tmp};
    }
    if (::rename(tmp.c_str(), path.c_str()) != 0) {
        ::unlink(tmp.c_str());
        return Error{ErrorCode::Io,
                     std::string("rename failed: ") +
                         std::strerror(errno),
                     path};
    }
    return std::nullopt;
}

util::Expected<std::shared_ptr<const MappedStore>>
MappedStore::open(const std::string &path)
{
    auto mapped = util::MappedFile::open(path);
    if (!mapped)
        return mapped.error();

    auto store = std::make_shared<MappedStore>();
    store->file_ = std::move(mapped.value());
    const uint8_t *data = store->file_.data();
    const size_t size = store->file_.size();

    auto fail = [&path](ErrorCode code, const std::string &what) {
        return Error{code, what, path};
    };

    // ---- fixed header ------------------------------------------------
    if (size < sizeof(StoreHeader))
        return fail(ErrorCode::Truncated,
                    "file shorter than the store header");
    const auto *header =
        reinterpret_cast<const StoreHeader *>(data);
    if (header->magic != kStoreMagic)
        return fail(ErrorCode::Format, "bad store magic");
    if (header->version != kStoreVersion)
        return fail(ErrorCode::Format, "unsupported store version");
    if (header->file_bytes > size)
        return fail(ErrorCode::Truncated,
                    "file shorter than its declared size");
    if (header->file_bytes < size)
        return fail(ErrorCode::Format,
                    "file larger than its declared size");

    // ---- metadata region + CRC ---------------------------------------
    // Bound chunk_count *before* trusting it for the CRC range: a
    // corrupted count must not push the region past the mapping.
    if (header->chunk_count > size / sizeof(ChunkDirEntry))
        return fail(ErrorCode::Corrupt,
                    "chunk directory exceeds the file");
    const size_t meta_end =
        sizeof(StoreHeader) +
        static_cast<size_t>(header->chunk_count) *
            sizeof(ChunkDirEntry) +
        kSectionCount * sizeof(SectionDesc);
    if (meta_end > size)
        return fail(ErrorCode::Truncated,
                    "metadata region exceeds the file");
    if (metaCrc(data, meta_end) != header->meta_crc)
        return fail(ErrorCode::Corrupt, "metadata CRC mismatch");

    // The CRC vouches for the metadata bytes; now check they
    // describe a consistent layout.
    if (header->reserved != 0)
        return fail(ErrorCode::Format,
                    "nonzero reserved header field");
    if (header->name[sizeof(header->name) - 1] != '\0')
        return fail(ErrorCode::Format,
                    "unterminated workload name");
    const uint64_t chunk_records = header->chunk_records;
    const uint64_t expect_chunks =
        header->record_count == 0
            ? 0
            : (chunk_records == 0
                   ? 1 // division guard; flagged just below
                   : util::divCeil(header->record_count,
                                   chunk_records));
    if (header->record_count != 0 && chunk_records == 0)
        return fail(ErrorCode::Format, "zero chunk_records");
    if (header->chunk_count != expect_chunks)
        return fail(ErrorCode::Format,
                    "chunk count does not match record count");

    const auto *dir = reinterpret_cast<const ChunkDirEntry *>(
        data + sizeof(StoreHeader));
    const auto *descs = reinterpret_cast<const SectionDesc *>(
        data + sizeof(StoreHeader) +
        static_cast<size_t>(header->chunk_count) *
            sizeof(ChunkDirEntry));

    // ---- sections ----------------------------------------------------
    if (descs[0].bytes !=
        static_cast<uint64_t>(header->frequent_count) *
            sizeof(Word)) {
        return fail(ErrorCode::Format,
                    "frequent-value section size mismatch");
    }
    size_t expect_off = meta_end;
    for (size_t i = 0; i < kSectionCount; ++i) {
        const SectionDesc &desc = descs[i];
        if (desc.reserved != 0)
            return fail(ErrorCode::Format,
                        "nonzero reserved section field");
        if (desc.offset != expect_off)
            return fail(ErrorCode::Format,
                        "section offset out of sequence");
        if (desc.bytes > size - desc.offset)
            return fail(ErrorCode::Truncated,
                        "section exceeds the file");
        expect_off += pad8(desc.bytes);
        if (expect_off > size)
            return fail(ErrorCode::Truncated,
                        "section padding exceeds the file");
        if (util::crc32(data + desc.offset,
                        pad8(desc.bytes)) != desc.crc) {
            return fail(ErrorCode::Corrupt,
                        "section CRC mismatch");
        }
    }

    // ---- chunk blocks ------------------------------------------------
    uint64_t records_seen = 0;
    store->chunks_.reserve(header->chunk_count);
    for (uint64_t i = 0; i < header->chunk_count; ++i) {
        const ChunkDirEntry &entry = dir[i];
        const bool last = i + 1 == header->chunk_count;
        if (entry.records == 0 ||
            (!last && entry.records != chunk_records) ||
            (last && entry.records > chunk_records)) {
            return fail(ErrorCode::Format,
                        "bad chunk record count");
        }
        if (entry.offset != expect_off)
            return fail(ErrorCode::Format,
                        "chunk offset out of sequence");
        const size_t block = pad8(chunkBlockBytes(entry.records));
        if (block > size - entry.offset)
            return fail(ErrorCode::Truncated,
                        "chunk exceeds the file");
        expect_off += block;
        if (util::crc32(data + entry.offset, block) != entry.crc)
            return fail(ErrorCode::Corrupt, "chunk CRC mismatch");

        const uint8_t *base = data + entry.offset;
        const size_t n = entry.records;
        StoreChunkView view;
        view.icount =
            reinterpret_cast<const uint64_t *>(base);
        view.addr =
            reinterpret_cast<const Addr *>(base + n * 8);
        view.value =
            reinterpret_cast<const Word *>(base + n * 12);
        view.op = base + n * 16;
        view.records = entry.records;
        store->chunks_.push_back(view);
        records_seen += entry.records;
    }
    if (expect_off != size)
        return fail(ErrorCode::Format,
                    "file size does not match the layout");
    if (records_seen != header->record_count)
        return fail(ErrorCode::Format,
                    "directory record total mismatch");

    // Ops are replayed straight off the mapping; a bad op byte must
    // be caught here, not asserted on later.
    for (const auto &chunk : store->chunks_) {
        if (maxByte(chunk.op, chunk.records) >
            static_cast<uint8_t>(Op::Free))
            return fail(ErrorCode::Corrupt, "bad op byte in chunk");
    }

    store->header_ = header;
    store->frequent_ = {reinterpret_cast<const Word *>(
                            data + descs[0].offset),
                        header->frequent_count};
    store->initial_ = {data + descs[1].offset, descs[1].bytes};
    store->final_ = {data + descs[2].offset, descs[2].bytes};
    return std::shared_ptr<const MappedStore>(std::move(store));
}

} // namespace fvc::trace
