/**
 * @file
 * Tests for the persistent trace store: v3 file round-trips,
 * corruption and bad-op rejection, pinned content keys, and the
 * TraceRepository's disk tier (warm hits, healing, eviction
 * preferences, content-keyed file names).
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <unistd.h>

#include "cache/config.hh"
#include "core/dmc_fvc_system.hh"
#include "harness/runner.hh"
#include "harness/trace_repo.hh"
#include "trace/trace_store.hh"
#include "util/error.hh"
#include "workload/fingerprint.hh"
#include "workload/profile.hh"

#include "env_guard.hh"

namespace fc = fvc::cache;
namespace fco = fvc::core;
namespace fh = fvc::harness;
namespace ft = fvc::trace;
namespace fu = fvc::util;
namespace fw = fvc::workload;
namespace fs = std::filesystem;

namespace {

using fvc::test::EnvGuard;
using fvc::test::TempDir;

fh::TraceKey
makeKey(const fw::BenchmarkProfile &profile, uint64_t accesses,
        uint64_t seed, size_t top_k = 10)
{
    fh::TraceKey key;
    key.profile = profile.name;
    key.profile_hash = fw::profileFingerprint(profile);
    key.accesses = accesses;
    key.seed = seed;
    key.top_k = top_k;
    return key;
}

/** A deliberately tiny workload, so the exhaustive bit-corruption
 * sweep stays fast: one small hot spot, one page of data. */
fw::BenchmarkProfile
tinyProfile()
{
    fw::BenchmarkProfile profile;
    profile.name = "tiny";
    fw::HotSpotParams hot;
    hot.base = 0x10000000;
    hot.words = 64;
    hot.burst = 8;
    hot.object_words = 4;
    profile.kernels.push_back({hot, 1.0});
    fw::PhaseSpec phase;
    phase.pool.frequent = {{0, 4.0}, {1, 2.0}, {0xffffffffu, 1.0}};
    phase.pool.frequent_mass = 0.6;
    phase.pool.tails = {{fw::TailKind::RandomWord, 1.0}};
    profile.phases.push_back(phase);
    return profile;
}

void
expectTracesEqual(const fh::PreparedTrace &a,
                  const fh::PreparedTrace &b)
{
    EXPECT_EQ(a.name, b.name);
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.frequent_values, b.frequent_values);
    EXPECT_EQ(a.columns.size(), b.columns.size());
    EXPECT_EQ(a.columns.materializeRecords(),
              b.columns.materializeRecords());
    EXPECT_EQ(a.initial_image.serialize(),
              b.initial_image.serialize());
    EXPECT_EQ(a.final_image.serialize(), b.final_image.serialize());
}

/** Replay both traces through DMC+FVC and require bit-identical
 * statistics: the zero-copy mmap view must be indistinguishable
 * from the heap trace to every simulator. */
void
expectIdenticalReplayStats(const fh::PreparedTrace &a,
                           const fh::PreparedTrace &b)
{
    fc::CacheConfig dmc;
    dmc.size_bytes = 8 * 1024;
    dmc.line_bytes = 32;
    fco::FvcConfig fvc;
    fvc.entries = 256;
    fvc.line_bytes = 32;
    fvc.code_bits = 3;

    auto sys_a = fh::runDmcFvc(a, dmc, fvc);
    auto sys_b = fh::runDmcFvc(b, dmc, fvc);

    const fc::CacheStats &ca = sys_a->stats();
    const fc::CacheStats &cb = sys_b->stats();
    EXPECT_EQ(ca.read_hits, cb.read_hits);
    EXPECT_EQ(ca.read_misses, cb.read_misses);
    EXPECT_EQ(ca.write_hits, cb.write_hits);
    EXPECT_EQ(ca.write_misses, cb.write_misses);
    EXPECT_EQ(ca.fills, cb.fills);
    EXPECT_EQ(ca.writebacks, cb.writebacks);
    EXPECT_EQ(ca.fetch_bytes, cb.fetch_bytes);
    EXPECT_EQ(ca.writeback_bytes, cb.writeback_bytes);

    const fco::FvcStats &fa = sys_a->fvcStats();
    const fco::FvcStats &fb = sys_b->fvcStats();
    EXPECT_EQ(fa.fvc_read_hits, fb.fvc_read_hits);
    EXPECT_EQ(fa.fvc_write_hits, fb.fvc_write_hits);
    EXPECT_EQ(fa.partial_misses, fb.partial_misses);
    EXPECT_EQ(fa.write_allocations, fb.write_allocations);
    EXPECT_EQ(fa.insertions, fb.insertions);
    EXPECT_EQ(fa.insertions_skipped, fb.insertions_skipped);
    EXPECT_EQ(fa.fvc_writebacks, fb.fvc_writebacks);
    EXPECT_EQ(fa.occupancy_sum, fb.occupancy_sum);
    EXPECT_EQ(fa.occupancy_samples, fb.occupancy_samples);
}

} // namespace

// ---------------------------------------------------------------
// Round trips
// ---------------------------------------------------------------

TEST(TraceStoreTest, RoundTripsEverySpecIntProfile)
{
    EnvGuard env;
    TempDir dir;
    for (fw::SpecInt bench : fw::allSpecInt()) {
        auto profile = fw::specIntProfile(bench);
        auto trace = fh::prepareTrace(profile, 4000, 7);
        auto key = makeKey(profile, 4000, 7);
        const std::string path = dir.file(fh::storeFileName(key));

        auto err = fh::saveTraceFile(path, trace, key);
        ASSERT_FALSE(err.has_value())
            << profile.name << ": " << err->describe();

        auto loaded = fh::loadTraceFile(path);
        ASSERT_TRUE(loaded.ok())
            << profile.name << ": " << loaded.error().describe();
        EXPECT_TRUE(loaded.value().mapped());
        EXPECT_TRUE(loaded.value().columns.isView());
        expectTracesEqual(trace, loaded.value());
        expectIdenticalReplayStats(trace, loaded.value());
    }
}

TEST(TraceStoreTest, RoundTripsMultiChunkTrace)
{
    // More records than one chunk holds, so the directory, the
    // full-except-last invariant, and per-chunk CRCs all engage.
    EnvGuard env;
    TempDir dir;
    auto profile = fw::specIntProfile(fw::SpecInt::Gcc126);
    auto trace = fh::prepareTrace(profile, 70000, 11);
    ASSERT_GT(trace.columns.size(), fvc::sim::kChunkRecords);
    ASSERT_GT(trace.columns.chunks().size(), 1u);

    auto key = makeKey(profile, 70000, 11);
    const std::string path = dir.file(fh::storeFileName(key));
    ASSERT_FALSE(fh::saveTraceFile(path, trace, key).has_value());

    auto loaded = fh::loadTraceFile(path);
    ASSERT_TRUE(loaded.ok()) << loaded.error().describe();
    EXPECT_EQ(loaded.value().columns.chunks().size(),
              trace.columns.chunks().size());
    expectTracesEqual(trace, loaded.value());
}

// ---------------------------------------------------------------
// Corruption
// ---------------------------------------------------------------

namespace {

std::vector<char>
readAll(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return {std::istreambuf_iterator<char>(in),
            std::istreambuf_iterator<char>()};
}

void
writeAll(const std::string &path, const std::vector<char> &bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(),
              static_cast<std::streamsize>(bytes.size()));
}

bool
isStructuredDecodeError(const fu::Error &err)
{
    return err.code == fu::ErrorCode::Corrupt ||
           err.code == fu::ErrorCode::Format ||
           err.code == fu::ErrorCode::Truncated ||
           err.code == fu::ErrorCode::Io;
}

} // namespace

TEST(TraceStoreTest, EverySingleBitFlipIsAStructuredError)
{
    // Flip one bit in every byte of a (small) store file — header,
    // directory, section payloads, chunk columns, padding, and the
    // CRC fields themselves — and require a structured decode error
    // each time: never a crash, never a silently-wrong trace.
    EnvGuard env;
    TempDir dir;
    auto profile = tinyProfile();
    auto trace = fh::prepareTrace(profile, 300, 9);
    auto key = makeKey(profile, 300, 9);
    const std::string path = dir.file(fh::storeFileName(key));
    ASSERT_FALSE(fh::saveTraceFile(path, trace, key).has_value());
    ASSERT_TRUE(fh::loadTraceFile(path).ok());

    const std::vector<char> pristine = readAll(path);
    ASSERT_GT(pristine.size(), sizeof(ft::StoreHeader));
    ASSERT_LT(pristine.size(), 200u * 1024)
        << "tiny fixture grew; the exhaustive sweep would be slow";

    std::vector<char> bytes = pristine;
    for (size_t i = 0; i < bytes.size(); ++i) {
        // Rotate the flipped bit with the offset; over any 8-byte
        // field every bit position still gets exercised.
        const char mask = static_cast<char>(1u << (i % 8));
        bytes[i] ^= mask;
        writeAll(path, bytes);
        auto loaded = fh::loadTraceFile(path);
        ASSERT_FALSE(loaded.ok())
            << "bit flip at byte " << i << " went undetected";
        EXPECT_TRUE(isStructuredDecodeError(loaded.error()))
            << "byte " << i << ": " << loaded.error().describe();
        bytes[i] ^= mask;
    }

    // All 8 bit positions over the structured head of the file
    // (header + directory + section descriptors), where parsing —
    // not just CRC math — must survive adversarial values.
    const size_t head =
        std::min(bytes.size(), sizeof(ft::StoreHeader) + 256);
    for (size_t i = 0; i < head; ++i) {
        for (int bit = 0; bit < 8; ++bit) {
            const char mask = static_cast<char>(1u << bit);
            bytes[i] ^= mask;
            writeAll(path, bytes);
            auto loaded = fh::loadTraceFile(path);
            ASSERT_FALSE(loaded.ok())
                << "byte " << i << " bit " << bit;
            EXPECT_TRUE(isStructuredDecodeError(loaded.error()))
                << loaded.error().describe();
            bytes[i] ^= mask;
        }
    }

    writeAll(path, bytes);
    EXPECT_TRUE(fh::loadTraceFile(path).ok())
        << "fixture not restored correctly";
}

TEST(TraceStoreTest, TruncationIsAStructuredError)
{
    EnvGuard env;
    TempDir dir;
    auto profile = tinyProfile();
    auto trace = fh::prepareTrace(profile, 300, 9);
    auto key = makeKey(profile, 300, 9);
    const std::string path = dir.file(fh::storeFileName(key));
    ASSERT_FALSE(fh::saveTraceFile(path, trace, key).has_value());
    const std::vector<char> pristine = readAll(path);

    for (size_t keep : {size_t{0}, size_t{1}, size_t{16},
                        sizeof(ft::StoreHeader) - 1,
                        sizeof(ft::StoreHeader),
                        pristine.size() / 2, pristine.size() - 1}) {
        std::vector<char> bytes(pristine.begin(),
                                pristine.begin() +
                                    static_cast<long>(keep));
        writeAll(path, bytes);
        auto loaded = fh::loadTraceFile(path);
        ASSERT_FALSE(loaded.ok()) << "kept " << keep << " bytes";
        EXPECT_TRUE(isStructuredDecodeError(loaded.error()))
            << loaded.error().describe();
    }

    // Trailing garbage (file longer than the header claims).
    std::vector<char> bytes = pristine;
    bytes.push_back(0);
    writeAll(path, bytes);
    EXPECT_FALSE(fh::loadTraceFile(path).ok());

    EXPECT_FALSE(fh::loadTraceFile(dir.file("missing.fvcs")).ok());
}

TEST(TraceStoreTest, BadOpByteUnderValidCrcIsCorrupt)
{
    // A flipped op byte fails its chunk CRC first, so only a writer
    // that CRCs a bad op reaches the op-range check. Replay trusts
    // every op byte it maps; the check must refuse the file.
    TempDir dir;
    const std::vector<uint64_t> icount = {1, 2, 3, 4};
    const std::vector<ft::Addr> addr = {0x1000, 0x1004, 0x1000, 0x8};
    const std::vector<ft::Word> value = {7, 0, 7, 1};
    std::vector<uint8_t> op = {
        static_cast<uint8_t>(ft::Op::Store),
        static_cast<uint8_t>(ft::Op::Load),
        static_cast<uint8_t>(ft::Op::Load),
        static_cast<uint8_t>(ft::Op::Free)};
    const std::vector<ft::Word> frequent = {7, 0};
    const std::vector<uint8_t> image =
        fvc::memmodel::FunctionalMemory().serialize();

    ft::StoreMeta meta;
    meta.name = "bad-op";
    meta.instruction_count = 4;
    meta.chunk_records = fvc::sim::kChunkRecords;
    auto writeFixture = [&](const std::string &path) {
        ft::StoreChunkView chunk{icount.data(), addr.data(),
                                 value.data(), op.data(), 4};
        auto err = ft::writeStore(path, meta, {chunk}, frequent,
                                  image, image);
        ASSERT_FALSE(err.has_value()) << err->describe();
    };

    // The same file with in-range ops loads, so the one byte below
    // is the only thing wrong with it.
    const std::string good = dir.file("good.fvcs");
    writeFixture(good);
    ASSERT_TRUE(fh::loadTraceFile(good).ok());

    op[1] = static_cast<uint8_t>(ft::Op::Free) + 1;
    const std::string bad = dir.file("bad.fvcs");
    writeFixture(bad);
    auto loaded = fh::loadTraceFile(bad);
    ASSERT_FALSE(loaded.ok()) << "op byte 4 loaded";
    EXPECT_EQ(loaded.error().code, fu::ErrorCode::Corrupt)
        << loaded.error().describe();
}

// ---------------------------------------------------------------
// Content keys and file names
// ---------------------------------------------------------------

TEST(TraceStoreTest, ContentKeySeparatesEveryInput)
{
    auto profile = fw::specIntProfile(fw::SpecInt::Gcc126);
    const auto base = makeKey(profile, 2000, 1);

    auto variant = base;
    variant.accesses = 2001;
    EXPECT_NE(fh::storeContentKey(base),
              fh::storeContentKey(variant));

    variant = base;
    variant.seed = 2;
    EXPECT_NE(fh::storeContentKey(base),
              fh::storeContentKey(variant));

    variant = base;
    variant.top_k = 11;
    EXPECT_NE(fh::storeContentKey(base),
              fh::storeContentKey(variant));

    // Same display name, different content: a profile edit must
    // change the key even though the name did not.
    auto edited = profile;
    edited.mutate_fraction += 0.05;
    auto edited_key = makeKey(edited, 2000, 1);
    EXPECT_EQ(edited_key.profile, base.profile);
    EXPECT_NE(fh::storeContentKey(base),
              fh::storeContentKey(edited_key));
    EXPECT_NE(fh::storeFileName(base),
              fh::storeFileName(edited_key));
}

TEST(TraceStoreTest, ContentKeysArePinned)
{
    // Every .fvcs file name, and through cellTraceHash every cell
    // fingerprint, is built on this key. A change that moves it
    // orphans every trace store, result store and reference table
    // already on disk, so it has to edit these literals.
    fh::TraceKey literal;
    literal.profile = "pinned";
    literal.profile_hash = 0x0123456789abcdefull;
    literal.accesses = 400000;
    literal.seed = 0;
    literal.top_k = 10;
    EXPECT_EQ(fh::storeContentKey(literal), 0x2976448eef24df74ull);

    const auto gcc =
        makeKey(fw::specIntProfile(fw::SpecInt::Gcc126), 400000, 0);
    EXPECT_EQ(fh::storeContentKey(gcc), 0xece88b82638ba417ull);
    EXPECT_EQ(fh::storeFileName(gcc), "126.gcc-ece88b82638ba417.fvcs");
}

namespace {

/** Bit-at-a-time CRC-32 (0xEDB88320): a checksum of whole files
 * that shares no code with the writer's util::crc32. */
uint32_t
bitwiseCrc32(const std::vector<char> &bytes)
{
    uint32_t crc = ~0u;
    for (char c : bytes) {
        crc ^= static_cast<uint8_t>(c);
        for (int k = 0; k < 8; ++k)
            crc = (crc >> 1) ^ ((crc & 1) ? 0xedb88320u : 0u);
    }
    return ~crc;
}

} // namespace

TEST(TraceStoreTest, WrittenBytesArePinned)
{
    // Every store already on disk was written by earlier writers; a
    // writer change that moves one byte orphans them all, so it has
    // to edit these literals.
    EnvGuard env;
    TempDir dir;
    auto profile = fw::specIntProfile(fw::SpecInt::Gcc126);
    auto trace = fh::prepareTrace(profile, 20000, 0);
    auto key = makeKey(profile, 20000, 0);
    const std::string path = dir.file(fh::storeFileName(key));
    ASSERT_FALSE(fh::saveTraceFile(path, trace, key).has_value());

    const std::vector<char> bytes = readAll(path);
    EXPECT_EQ(bytes.size(), 1064560u);
    EXPECT_EQ(bitwiseCrc32(bytes), 0x2abe82d4u);
}

TEST(TraceStoreTest, FileNamesAreSanitized)
{
    auto profile = fw::specIntProfile(fw::SpecInt::Gcc126);
    auto key = makeKey(profile, 2000, 1);
    key.profile = "../evil name/126.gcc";
    const std::string name = fh::storeFileName(key);
    EXPECT_EQ(name.find('/'), std::string::npos);
    EXPECT_EQ(name.find(' '), std::string::npos);
    EXPECT_NE(name.find("126.gcc"), std::string::npos);
    EXPECT_NE(name.find(ft::kStoreExtension), std::string::npos);
}

// ---------------------------------------------------------------
// Repository disk tier
// ---------------------------------------------------------------

TEST(TraceRepositoryStoreTest, SameNameDifferentContentGetsOwnEntry)
{
    // The profile-name footgun: two profiles sharing a display name
    // must never alias one cached trace.
    EnvGuard env;
    auto a = fw::specIntProfile(fw::SpecInt::Gcc126);
    auto b = a;
    b.mutate_fraction = a.mutate_fraction + 0.2;

    fh::TraceRepository repo;
    auto ta = repo.get(a, 2000, 1);
    auto tb = repo.get(b, 2000, 1);
    EXPECT_EQ(repo.size(), 2u);
    EXPECT_EQ(repo.generations(), 2u);
    EXPECT_NE(ta.get(), tb.get());
    EXPECT_NE(ta->columns.materializeRecords(),
              tb->columns.materializeRecords());

    // Identical content under a different name is also distinct
    // (the name participates in the memory key via TraceKey).
    auto c = a;
    c.name = "126.gcc-renamed";
    auto tc = repo.get(c, 2000, 1);
    EXPECT_EQ(tc->columns.materializeRecords(),
              ta->columns.materializeRecords());
}

TEST(TraceRepositoryStoreTest, WarmHitSkipsGenerationEntirely)
{
    EnvGuard env;
    TempDir dir;
    EnvGuard::set("FVC_TRACE_DIR", dir.path().string());

    auto profile = fw::specIntProfile(fw::SpecInt::Vortex147);
    EXPECT_STREQ(fh::traceStoreStateName(), "cold");

    fh::TraceRepository cold;
    auto generated = cold.get(profile, 5000, 3);
    EXPECT_EQ(cold.generations(), 1u);
    EXPECT_EQ(cold.storeWrites(), 1u);
    EXPECT_EQ(cold.storeHits(), 0u);
    EXPECT_FALSE(generated->mapped());
    EXPECT_STREQ(fh::traceStoreStateName(), "warm");

    // A second repository (a fresh process, morally) must serve the
    // trace from the store without generating anything. With
    // FVC_TRACE_EXPECT_WARM set, any generation would abort —
    // that's the bench acceptance gate for "zero generation".
    EnvGuard::set("FVC_TRACE_EXPECT_WARM", "1");
    fh::TraceRepository warm;
    auto loaded = warm.get(profile, 5000, 3);
    EXPECT_EQ(warm.generations(), 0u);
    EXPECT_EQ(warm.storeHits(), 1u);
    EXPECT_EQ(warm.storeWrites(), 0u);
    ASSERT_TRUE(loaded->mapped());
    EnvGuard::unset("FVC_TRACE_EXPECT_WARM");

    expectTracesEqual(*generated, *loaded);
    expectIdenticalReplayStats(*generated, *loaded);

    // The mapped trace's heap footprint excludes the columns.
    EXPECT_LT(fh::TraceRepository::traceBytes(*loaded),
              fh::TraceRepository::traceBytes(*generated));

    // Counters survive clear(); cached entries do not.
    warm.clear();
    EXPECT_EQ(warm.size(), 0u);
    EXPECT_EQ(warm.storeHits(), 1u);
}

TEST(TraceRepositoryStoreTest, CorruptStoreFileIsHealedInReadWrite)
{
    EnvGuard env;
    TempDir dir;
    EnvGuard::set("FVC_TRACE_DIR", dir.path().string());

    auto profile = fw::specIntProfile(fw::SpecInt::Compress129);
    fh::TraceRepository seed;
    auto original = seed.get(profile, 4000, 3);
    auto key = makeKey(profile, 4000, 3);
    const std::string path = dir.file(fh::storeFileName(key));
    ASSERT_TRUE(fs::exists(path));

    auto bytes = readAll(path);
    bytes[bytes.size() / 2] ^= 0x10;
    writeAll(path, bytes);
    ASSERT_FALSE(fh::loadTraceFile(path).ok());

    // ReadOnly: the corrupt file forces regeneration but is left
    // untouched (a shared cache we must not scribble on).
    EnvGuard::set("FVC_TRACE_STORE", "readonly");
    fh::TraceRepository readonly;
    auto regenerated = readonly.get(profile, 4000, 3);
    EXPECT_EQ(readonly.generations(), 1u);
    EXPECT_EQ(readonly.storeWrites(), 0u);
    EXPECT_FALSE(fh::loadTraceFile(path).ok());
    expectTracesEqual(*original, *regenerated);

    // ReadWrite: regeneration also rewrites (heals) the file.
    EnvGuard::set("FVC_TRACE_STORE", "on");
    fh::TraceRepository healer;
    auto healed = healer.get(profile, 4000, 3);
    EXPECT_EQ(healer.generations(), 1u);
    EXPECT_EQ(healer.storeWrites(), 1u);
    auto reloaded = fh::loadTraceFile(path);
    ASSERT_TRUE(reloaded.ok()) << reloaded.error().describe();
    expectTracesEqual(*healed, reloaded.value());

    // And FVC_TRACE_STORE=off disables the tier outright.
    EnvGuard::set("FVC_TRACE_STORE", "off");
    EXPECT_STREQ(fh::traceStoreStateName(), "disabled");
    fh::TraceRepository off;
    auto fresh = off.get(profile, 4000, 3);
    EXPECT_EQ(off.generations(), 1u);
    EXPECT_EQ(off.storeHits(), 0u);
    EXPECT_FALSE(fresh->mapped());
}

TEST(TraceRepositoryStoreTest, EvictionPrefersHeapTracesOverViews)
{
    EnvGuard env;
    TempDir dir;
    EnvGuard::set("FVC_TRACE_DIR", dir.path().string());

    auto mapped_profile = fw::specIntProfile(fw::SpecInt::Gcc126);
    auto heap_profile = fw::specIntProfile(fw::SpecInt::Go099);
    auto tiny = tinyProfile();

    // Seed the store so the next repository's first hit is mapped.
    {
        fh::TraceRepository seeder;
        seeder.get(mapped_profile, 80000, 3);
    }

    fh::TraceRepository repo;
    auto mapped = repo.get(mapped_profile, 80000, 3);
    ASSERT_TRUE(mapped->mapped());
    const size_t mapped_bytes = repo.residentBytes();

    // The heap trace bypasses the store, so its columns stay on the
    // heap; it is also *newer* than the mapped trace, so plain LRU
    // would evict the mapped one first.
    EnvGuard::set("FVC_TRACE_STORE", "off");
    auto heap = repo.get(heap_profile, 80000, 3);
    EXPECT_FALSE(heap->mapped());
    const size_t heap_bytes = repo.residentBytes() - mapped_bytes;
    ASSERT_GT(heap_bytes, size_t{1} << 20)
        << "heap fixture too small for a 1 MB cap window";

    // Cap so that (mapped + tiny) fits but (mapped + heap + tiny)
    // does not: inserting the tiny trace must evict exactly the
    // heap trace, even though the mapped one is least recent.
    const size_t tiny_bytes = fh::TraceRepository::traceBytes(
        fh::prepareTrace(tiny, 300, 9));
    const size_t cap_mb =
        (mapped_bytes + tiny_bytes + (size_t{1} << 20) - 1) >> 20;
    EnvGuard::set("FVC_TRACE_CACHE_MB", std::to_string(cap_mb));

    auto tiny_trace = repo.get(tiny, 300, 9);
    EXPECT_EQ(repo.evictions(), 1u);
    EXPECT_EQ(repo.size(), 2u);

    // The mapped trace is still cached (pointer-equal), while the
    // heap trace was the victim.
    EnvGuard::unset("FVC_TRACE_CACHE_MB");
    auto mapped_again = repo.get(mapped_profile, 80000, 3);
    EXPECT_EQ(mapped_again.get(), mapped.get());
}
