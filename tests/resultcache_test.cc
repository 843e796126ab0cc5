/**
 * @file
 * Tests for the persistent result cache: record round-trips,
 * exhaustive single-bit corruption rejection and self-healing,
 * torn-tail truncation, cross-process first-wins convergence,
 * cost-ranked admission, and the ResultRepository's warm-serve /
 * dedup / dispatch contract against the direct simulation paths.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

#include "fabric/cell.hh"
#include "fabric/spill.hh"
#include "harness/parallel.hh"
#include "resultcache/repository.hh"
#include "resultcache/result_store.hh"
#include "util/error.hh"
#include "util/framed.hh"
#include "util/logging.hh"
#include "workload/profile.hh"

#include "env_guard.hh"

namespace fb = fvc::fabric;
namespace fc = fvc::cache;
namespace fco = fvc::core;
namespace fh = fvc::harness;
namespace frc = fvc::resultcache;
namespace fu = fvc::util;
namespace fw = fvc::workload;
namespace fs = std::filesystem;

namespace {

using fvc::test::EnvGuard;
using fvc::test::TempDir;

/** A record whose every counter is a distinct function of @p salt,
 * so any mis-decoded field shows up as an inequality. */
frc::ResultRecord
makeRecord(uint64_t fingerprint, uint64_t cost, uint64_t salt)
{
    frc::ResultRecord r;
    r.fingerprint = fingerprint;
    r.cost = cost;
    r.stats.cache.read_hits = salt * 3 + 1;
    r.stats.cache.read_misses = salt * 5 + 2;
    r.stats.cache.write_hits = salt * 7 + 3;
    r.stats.cache.write_misses = salt * 11 + 4;
    r.stats.cache.fills = salt * 13 + 5;
    r.stats.cache.writebacks = salt * 17 + 6;
    r.stats.cache.fetch_bytes = salt * 19 + 7;
    r.stats.cache.writeback_bytes = salt * 23 + 8;
    r.stats.fvc.fvc_read_hits = salt * 29 + 9;
    r.stats.fvc.fvc_write_hits = salt * 31 + 10;
    r.stats.fvc.partial_misses = salt * 37 + 11;
    r.stats.fvc.write_allocations = salt * 41 + 12;
    r.stats.fvc.insertions = salt * 43 + 13;
    r.stats.fvc.insertions_skipped = salt * 47 + 14;
    r.stats.fvc.fvc_writebacks = salt * 53 + 15;
    r.stats.fvc.occupancy_sum = 0.125 * static_cast<double>(salt);
    r.stats.fvc.occupancy_samples = salt * 59 + 16;
    return r;
}

std::vector<uint8_t>
readFileBytes(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return std::vector<uint8_t>(
        (std::istreambuf_iterator<char>(in)),
        std::istreambuf_iterator<char>());
}

void
writeFileBytes(const std::string &path,
               const std::vector<uint8_t> &bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char *>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
}

/** A tiny bare-DMC cell (fast enough to simulate in tests). */
fb::CellSpec
makeCell(fw::SpecInt bench, uint64_t accesses = 2000,
         uint64_t seed = 91)
{
    fb::CellSpec cell;
    cell.bench = bench;
    cell.accesses = accesses;
    cell.seed = seed;
    cell.dmc.size_bytes = 4 * 1024;
    cell.dmc.line_bytes = 32;
    return cell;
}

fb::CellSpec
withFvc(fb::CellSpec cell, uint32_t entries = 128)
{
    cell.fvc.entries = entries;
    cell.fvc.line_bytes = cell.dmc.line_bytes;
    cell.fvc.code_bits = 3;
    cell.has_fvc = true;
    return cell;
}

/** A Figure 13-shaped lane grid on two traces — per trace, 7 bare
 * DMC geometries plus 3 code widths x 7 DMC+FVC geometries, 28 lane
 * cells, submitted interleaved like the figure — then a victim, an
 * L2 and a write-through cell, each on a trace of its own. Unsplit,
 * that is 5 dispatch units. */
std::vector<fb::CellSpec>
dispatchGrid(uint64_t accesses)
{
    struct Row
    {
        uint32_t line_bytes;
        uint32_t dmc_kb;
    };
    const Row rows[] = {{8, 4},   {16, 8},  {16, 16}, {16, 32},
                        {32, 16}, {32, 32}, {64, 32}};
    const fw::SpecInt benches[] = {fw::SpecInt::M88ksim124,
                                   fw::SpecInt::Perl134};
    std::vector<fb::CellSpec> cells;
    for (auto bench : benches) {
        for (const Row &row : rows) {
            auto cell = makeCell(bench, accesses, 23);
            cell.dmc.size_bytes = 2 * row.dmc_kb * 1024;
            cell.dmc.line_bytes = row.line_bytes;
            cells.push_back(cell);
        }
    }
    for (uint32_t code_bits : {3u, 2u, 1u}) {
        for (auto bench : benches) {
            for (const Row &row : rows) {
                auto cell = makeCell(bench, accesses, 23);
                cell.dmc.size_bytes = row.dmc_kb * 1024;
                cell.dmc.line_bytes = row.line_bytes;
                cell = withFvc(cell, 512);
                cell.fvc.code_bits = code_bits;
                cells.push_back(cell);
            }
        }
    }
    auto victim = makeCell(fw::SpecInt::Go099, accesses, 73);
    victim.victim_entries = 16;
    cells.push_back(victim);
    auto two_level = makeCell(fw::SpecInt::Li130, accesses, 73);
    two_level.l2.size_bytes = 64 * 1024;
    two_level.l2.line_bytes = 32;
    two_level.l2.assoc = 4;
    two_level.has_l2 = true;
    cells.push_back(two_level);
    auto wt = makeCell(fw::SpecInt::Vortex147, accesses, 83);
    wt.dmc.write_policy = fc::WritePolicy::WriteThrough;
    cells.push_back(wt);
    return cells;
}

/** The lane kernel's cell kinds: write-back, no victim, no L2. */
bool
laneEligible(const fb::CellSpec &cell)
{
    return cell.dmc.write_policy == fc::WritePolicy::WriteBack &&
           cell.victim_entries == 0 && !cell.has_l2;
}

} // namespace

// ---------------------------------------------------------------
// Result store: on-disk format.
// ---------------------------------------------------------------

TEST(ResultStoreTest, PublishReadRoundTrip)
{
    TempDir dir;
    const std::string path = dir.file("results.fvrc");
    std::vector<frc::ResultRecord> records = {
        makeRecord(101, 5000, 1), makeRecord(202, 6000, 2),
        makeRecord(303, 7000, 3)};
    ASSERT_FALSE(frc::publishResults(path, records, UINT64_MAX));

    auto contents = frc::readResultFile(path);
    ASSERT_TRUE(contents.ok()) << contents.error().describe();
    EXPECT_EQ(contents.value().rejected_frames, 0u);
    EXPECT_FALSE(contents.value().truncated_tail);
    ASSERT_EQ(contents.value().records.size(), records.size());
    for (size_t i = 0; i < records.size(); ++i) {
        const auto &got = contents.value().records[i];
        EXPECT_EQ(got.fingerprint, records[i].fingerprint);
        EXPECT_EQ(got.cost, records[i].cost);
        EXPECT_TRUE(got.stats.identical(records[i].stats));
    }

    // On-disk size is exactly records * the documented record size
    // (the constant the admission capacity is computed from).
    EXPECT_EQ(fs::file_size(path),
              records.size() * frc::kResultRecordBytes);
}

TEST(ResultStoreTest, RepublishSameKeyKeepsFirstRecord)
{
    TempDir dir;
    const std::string path = dir.file("results.fvrc");
    auto first = makeRecord(42, 1000, 1);
    auto second = makeRecord(42, 1000, 2);
    ASSERT_FALSE(frc::publishResults(path, {first}, UINT64_MAX));
    ASSERT_FALSE(frc::publishResults(path, {second}, UINT64_MAX));

    auto contents = frc::readResultFile(path);
    ASSERT_TRUE(contents.ok());
    ASSERT_EQ(contents.value().records.size(), 1u);
    EXPECT_TRUE(contents.value().records[0].stats.identical(
        first.stats));
    EXPECT_FALSE(contents.value().records[0].stats.identical(
        second.stats));
}

TEST(ResultStoreTest, EverySingleBitCorruptionIsRejectedNotTrusted)
{
    TempDir dir;
    const std::string path = dir.file("results.fvrc");
    auto a = makeRecord(111, 5000, 1);
    auto b = makeRecord(222, 6000, 2);
    ASSERT_FALSE(frc::publishResults(path, {a, b}, UINT64_MAX));
    const auto clean = readFileBytes(path);
    ASSERT_EQ(clean.size(), 2 * frc::kResultRecordBytes);

    const std::string mutated = dir.file("mutated.fvrc");
    size_t healed_probes = 0;
    for (size_t bit = 0; bit < clean.size() * 8; ++bit) {
        auto bytes = clean;
        bytes[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
        writeFileBytes(mutated, bytes);

        auto contents = frc::readResultFile(mutated);
        ASSERT_TRUE(contents.ok()) << "bit " << bit;
        size_t valid = 0;
        for (const auto &got : contents.value().records) {
            // A survivor must be byte-identical to the original
            // with its fingerprint: a single flipped bit may cost
            // a record, but can never alter one (CRC).
            if (got.fingerprint == a.fingerprint) {
                EXPECT_TRUE(got.stats.identical(a.stats))
                    << "bit " << bit;
                EXPECT_EQ(got.cost, a.cost) << "bit " << bit;
            } else {
                ASSERT_EQ(got.fingerprint, b.fingerprint)
                    << "bit " << bit;
                EXPECT_TRUE(got.stats.identical(b.stats))
                    << "bit " << bit;
                EXPECT_EQ(got.cost, b.cost) << "bit " << bit;
            }
            ++valid;
        }
        ASSERT_LE(valid, 2u) << "bit " << bit;
        // The flip must be *noticed*: a lost record, a rejected
        // frame, or a torn tail. Two pristine records would mean a
        // corrupt bit decoded as trustworthy.
        EXPECT_TRUE(valid < 2 ||
                    contents.value().rejected_frames > 0 ||
                    contents.value().truncated_tail)
            << "bit " << bit;

        // Self-heal: republishing the lost records over the
        // corrupt file restores a pristine 2-record store.
        if (valid < 2) {
            ++healed_probes;
            if (healed_probes <= 8) {
                ASSERT_FALSE(frc::publishResults(mutated, {a, b},
                                                 UINT64_MAX));
                auto healed = frc::readResultFile(mutated);
                ASSERT_TRUE(healed.ok());
                EXPECT_EQ(healed.value().records.size(), 2u);
                EXPECT_EQ(healed.value().rejected_frames, 0u);
                EXPECT_FALSE(healed.value().truncated_tail);
            }
        }
    }
    // Most flips hit payload bytes and must cost a record.
    EXPECT_GT(healed_probes, clean.size() * 4);
}

TEST(ResultStoreTest, TornTailDropsOnlyTheLastRecord)
{
    TempDir dir;
    const std::string path = dir.file("results.fvrc");
    auto a = makeRecord(111, 5000, 1);
    auto b = makeRecord(222, 6000, 2);
    auto c = makeRecord(333, 7000, 3);
    ASSERT_FALSE(frc::publishResults(path, {a, b, c}, UINT64_MAX));
    const auto clean = readFileBytes(path);

    // Every truncation point inside the third record: the first
    // two records survive, the tail is reported torn.
    const std::string torn = dir.file("torn.fvrc");
    const size_t two = 2 * frc::kResultRecordBytes;
    for (size_t cut = two + 1; cut < clean.size(); ++cut) {
        writeFileBytes(torn, std::vector<uint8_t>(
                                 clean.begin(),
                                 clean.begin() +
                                     static_cast<ptrdiff_t>(cut)));
        auto contents = frc::readResultFile(torn);
        ASSERT_TRUE(contents.ok()) << "cut " << cut;
        ASSERT_EQ(contents.value().records.size(), 2u)
            << "cut " << cut;
        EXPECT_TRUE(contents.value().records[0].stats.identical(
            a.stats));
        EXPECT_TRUE(contents.value().records[1].stats.identical(
            b.stats));
        EXPECT_TRUE(contents.value().truncated_tail)
            << "cut " << cut;
        EXPECT_EQ(contents.value().rejected_frames, 0u)
            << "cut " << cut;
    }

    // A clean cut at a record boundary is not torn at all.
    writeFileBytes(torn,
                   std::vector<uint8_t>(clean.begin(),
                                        clean.begin() +
                                            static_cast<ptrdiff_t>(
                                                two)));
    auto contents = frc::readResultFile(torn);
    ASSERT_TRUE(contents.ok());
    EXPECT_EQ(contents.value().records.size(), 2u);
    EXPECT_FALSE(contents.value().truncated_tail);
}

TEST(ResultStoreTest, TwoProcessesSameKeyConvergeFirstWins)
{
    TempDir dir;
    const std::string path = dir.file("results.fvrc");
    auto first = makeRecord(77, 1000, 1);
    auto second = makeRecord(77, 1000, 2);
    auto extra = makeRecord(88, 2000, 3);

    // The parent publishes the key first; a child process then
    // publishes a conflicting record for the same key (plus one
    // new key). The child's merge must read the parent's record
    // and keep it — first-wins across processes.
    ASSERT_FALSE(frc::publishResults(path, {first}, UINT64_MAX));
    pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
        auto err =
            frc::publishResults(path, {second, extra}, UINT64_MAX);
        _exit(err ? 1 : 0);
    }
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);

    auto contents = frc::readResultFile(path);
    ASSERT_TRUE(contents.ok());
    ASSERT_EQ(contents.value().records.size(), 2u);
    bool saw_key = false, saw_extra = false;
    for (const auto &got : contents.value().records) {
        if (got.fingerprint == 77) {
            EXPECT_TRUE(got.stats.identical(first.stats));
            saw_key = true;
        } else if (got.fingerprint == 88) {
            EXPECT_TRUE(got.stats.identical(extra.stats));
            saw_extra = true;
        }
    }
    EXPECT_TRUE(saw_key);
    EXPECT_TRUE(saw_extra);

    // Truly concurrent publishers: whatever the interleaving, the
    // published file is a self-consistent snapshot (atomic rename)
    // holding one of the two candidate records for the racing key.
    const std::string race = dir.file("race.fvrc");
    pid_t kids[2];
    for (int i = 0; i < 2; ++i) {
        kids[i] = ::fork();
        ASSERT_GE(kids[i], 0);
        if (kids[i] == 0) {
            auto err = frc::publishResults(
                race, {i == 0 ? first : second}, UINT64_MAX);
            _exit(err ? 1 : 0);
        }
    }
    for (pid_t kid : kids) {
        ASSERT_EQ(::waitpid(kid, &status, 0), kid);
        ASSERT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);
    }
    auto raced = frc::readResultFile(race);
    ASSERT_TRUE(raced.ok());
    EXPECT_EQ(raced.value().rejected_frames, 0u);
    EXPECT_FALSE(raced.value().truncated_tail);
    ASSERT_EQ(raced.value().records.size(), 1u);
    EXPECT_TRUE(
        raced.value().records[0].stats.identical(first.stats) ||
        raced.value().records[0].stats.identical(second.stats));
}

TEST(ResultStoreTest, AdmissionKeepsTheMostExpensiveRecords)
{
    TempDir dir;
    const std::string path = dir.file("results.fvrc");
    // Capacity for exactly two records.
    const uint64_t cap = 2 * frc::kResultRecordBytes;
    std::vector<frc::ResultRecord> records = {
        makeRecord(1, 10, 1), makeRecord(2, 40, 2),
        makeRecord(3, 20, 3), makeRecord(4, 30, 4)};
    ASSERT_FALSE(frc::publishResults(path, records, cap));

    auto contents = frc::readResultFile(path);
    ASSERT_TRUE(contents.ok());
    ASSERT_EQ(contents.value().records.size(), 2u);
    // Highest cost wins; submission order is preserved among the
    // survivors (2 before 4).
    EXPECT_EQ(contents.value().records[0].fingerprint, 2u);
    EXPECT_EQ(contents.value().records[1].fingerprint, 4u);

    // Equal costs break ties by fingerprint, deterministically.
    const std::string tie = dir.file("tie.fvrc");
    std::vector<frc::ResultRecord> ties = {
        makeRecord(9, 50, 1), makeRecord(7, 50, 2),
        makeRecord(8, 50, 3)};
    ASSERT_FALSE(frc::publishResults(tie, ties, cap));
    auto tied = frc::readResultFile(tie);
    ASSERT_TRUE(tied.ok());
    ASSERT_EQ(tied.value().records.size(), 2u);
    EXPECT_EQ(tied.value().records[0].fingerprint, 7u);
    EXPECT_EQ(tied.value().records[1].fingerprint, 8u);
}

// ---------------------------------------------------------------
// ResultRepository: the warm-serve layer.
// ---------------------------------------------------------------

TEST(ResultRepositoryTest, DisabledModeMatchesDirectSimulation)
{
    EnvGuard env;
    // No FVC_RESULT_DIR: every cell dispatches, every counter of
    // the returned stats matches the direct simulateCell path for
    // every cell kind runCells can carry.
    std::vector<fb::CellSpec> specs;
    specs.push_back(makeCell(fw::SpecInt::Go099));
    specs.push_back(withFvc(makeCell(fw::SpecInt::Gcc126)));
    auto victim = makeCell(fw::SpecInt::Li130);
    victim.victim_entries = 8;
    specs.push_back(victim);
    auto two_level = makeCell(fw::SpecInt::Perl134);
    two_level.l2.size_bytes = 16 * 1024;
    two_level.l2.line_bytes = 32;
    two_level.l2.assoc = 4;
    two_level.has_l2 = true;
    specs.push_back(two_level);
    auto wt = makeCell(fw::SpecInt::Vortex147);
    wt.dmc.write_policy = fc::WritePolicy::WriteThrough;
    specs.push_back(wt);
    auto fp = withFvc(makeCell(fw::SpecInt::Go099));
    fp.fp_name = fw::allSpecFpNames().front();
    specs.push_back(fp);

    frc::ResultRepository repo;
    auto results = repo.runCells(specs, "parity sweep");
    ASSERT_EQ(results.size(), specs.size());
    EXPECT_EQ(repo.simulations(), specs.size());
    EXPECT_EQ(repo.storeHits(), 0u);
    EXPECT_EQ(repo.storeWrites(), 0u);
    for (size_t i = 0; i < specs.size(); ++i) {
        ASSERT_TRUE(results[i]) << specs[i].describe();
        auto direct = fb::simulateCell(specs[i]);
        EXPECT_TRUE(results[i]->identical(direct))
            << specs[i].describe();
    }
}

TEST(ResultRepositoryTest, WarmServeSkipsSimulationEntirely)
{
    EnvGuard env;
    TempDir dir;
    EnvGuard::set("FVC_RESULT_DIR", dir.path().string());

    std::vector<fb::CellSpec> specs;
    specs.push_back(makeCell(fw::SpecInt::Go099));
    specs.push_back(withFvc(makeCell(fw::SpecInt::Go099)));
    specs.push_back(makeCell(fw::SpecInt::Go099)); // duplicate

    EXPECT_STREQ(frc::resultCacheStateName(), "cold");
    frc::ResultRepository cold;
    auto first = cold.runCells(specs, "cold sweep");
    EXPECT_EQ(cold.simulations(), 2u);
    EXPECT_EQ(cold.dedups(), 1u);
    EXPECT_EQ(cold.storeHits(), 0u);
    EXPECT_EQ(cold.storeWrites(), 2u);
    ASSERT_TRUE(first[0] && first[1] && first[2]);
    EXPECT_TRUE(first[0]->identical(*first[2]));
    EXPECT_STREQ(frc::resultCacheStateName(), "warm");

    // A fresh repository (a fresh process, morally) must serve all
    // three cells from the store. With FVC_RESULT_EXPECT_WARM set,
    // any dispatch would exit — that's the bench acceptance gate
    // for "zero simulations".
    EnvGuard::set("FVC_RESULT_EXPECT_WARM", "1");
    frc::ResultRepository warm;
    auto second = warm.runCells(specs, "warm sweep");
    EXPECT_EQ(warm.simulations(), 0u);
    EXPECT_EQ(warm.storeHits(), 3u);
    EXPECT_EQ(warm.storeWrites(), 0u);
    EnvGuard::unset("FVC_RESULT_EXPECT_WARM");
    for (size_t i = 0; i < specs.size(); ++i) {
        ASSERT_TRUE(second[i]);
        EXPECT_TRUE(second[i]->identical(*first[i]));
    }
}

TEST(ResultRepositoryTest, ExpectWarmMissIsFatal)
{
    EnvGuard env;
    TempDir dir;
    EnvGuard::set("FVC_RESULT_DIR", dir.path().string());
    EnvGuard::set("FVC_RESULT_EXPECT_WARM", "1");
    std::vector<fb::CellSpec> specs = {makeCell(fw::SpecInt::Go099)};
    // Earlier tests leave a worker-pool thread alive; the default
    // fork()-style death test would inherit its locks and deadlock.
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    EXPECT_EXIT(
        {
            frc::ResultRepository repo;
            repo.runCells(specs, "doomed sweep");
        },
        ::testing::ExitedWithCode(1), "missed the result cache");
}

TEST(ResultRepositoryTest, ReadOnlyModeServesButNeverWrites)
{
    EnvGuard env;
    TempDir dir;
    EnvGuard::set("FVC_RESULT_DIR", dir.path().string());
    std::vector<fb::CellSpec> specs = {
        makeCell(fw::SpecInt::Go099),
        withFvc(makeCell(fw::SpecInt::Go099))};

    // Readonly against an empty dir: simulates, publishes nothing.
    EnvGuard::set("FVC_RESULT_CACHE", "readonly");
    frc::ResultRepository ro;
    auto first = ro.runCells(specs, "readonly sweep");
    EXPECT_EQ(ro.simulations(), 2u);
    EXPECT_EQ(ro.storeWrites(), 0u);
    EXPECT_FALSE(fs::exists(frc::resultFilePath()));

    // Populate via ReadWrite, then readonly must serve warm.
    EnvGuard::set("FVC_RESULT_CACHE", "on");
    frc::ResultRepository rw;
    rw.runCells(specs, "populate sweep");
    ASSERT_TRUE(fs::exists(frc::resultFilePath()));
    auto mtime = fs::last_write_time(frc::resultFilePath());

    EnvGuard::set("FVC_RESULT_CACHE", "readonly");
    frc::ResultRepository warm;
    auto served = warm.runCells(specs, "warm readonly sweep");
    EXPECT_EQ(warm.simulations(), 0u);
    EXPECT_EQ(warm.storeHits(), 2u);
    EXPECT_EQ(warm.storeWrites(), 0u);
    EXPECT_EQ(fs::last_write_time(frc::resultFilePath()), mtime);
    for (size_t i = 0; i < specs.size(); ++i) {
        ASSERT_TRUE(served[i] && first[i]);
        EXPECT_TRUE(served[i]->identical(*first[i]));
    }

    // "off" disables even with the dir set.
    EnvGuard::set("FVC_RESULT_CACHE", "off");
    EXPECT_STREQ(frc::resultCacheStateName(), "off");
    frc::ResultRepository off;
    off.runCells(specs, "off sweep");
    EXPECT_EQ(off.simulations(), 2u);
    EXPECT_EQ(off.storeHits(), 0u);
}

TEST(ResultRepositoryTest, CorruptRecordRegeneratesAndSelfHeals)
{
    EnvGuard env;
    TempDir dir;
    EnvGuard::set("FVC_RESULT_DIR", dir.path().string());
    std::vector<fb::CellSpec> specs = {
        makeCell(fw::SpecInt::Go099),
        withFvc(makeCell(fw::SpecInt::Go099))};

    frc::ResultRepository cold;
    auto reference = cold.runCells(specs, "cold sweep");
    ASSERT_TRUE(reference[0] && reference[1]);

    // Flip one payload bit of the second record on disk.
    const std::string path = frc::resultFilePath();
    auto bytes = readFileBytes(path);
    ASSERT_EQ(bytes.size(), 2 * frc::kResultRecordBytes);
    bytes[frc::kResultRecordBytes + fvc::util::kFrameHeadBytes +
          20] ^= 0x10;
    writeFileBytes(path, bytes);

    // The next run rejects the corrupt record, re-simulates only
    // that cell, returns identical results, and heals the file.
    frc::ResultRepository heal;
    auto healed = heal.runCells(specs, "healing sweep");
    EXPECT_EQ(heal.storeHits(), 1u);
    EXPECT_EQ(heal.simulations(), 1u);
    EXPECT_EQ(heal.storeWrites(), 1u);
    for (size_t i = 0; i < specs.size(); ++i) {
        ASSERT_TRUE(healed[i]);
        EXPECT_TRUE(healed[i]->identical(*reference[i]));
    }
    auto contents = frc::readResultFile(path);
    ASSERT_TRUE(contents.ok());
    EXPECT_EQ(contents.value().records.size(), 2u);
    EXPECT_EQ(contents.value().rejected_frames, 0u);

    // And the healed store serves fully warm.
    EnvGuard::set("FVC_RESULT_EXPECT_WARM", "1");
    frc::ResultRepository warm;
    auto warm_results = warm.runCells(specs, "warm sweep");
    EXPECT_EQ(warm.simulations(), 0u);
    for (size_t i = 0; i < specs.size(); ++i)
        EXPECT_TRUE(warm_results[i]->identical(*reference[i]));
}

TEST(ResultRepositoryTest, SizeCapAdmissionPrefersExpensiveCells)
{
    EnvGuard env;
    TempDir dir;
    EnvGuard::set("FVC_RESULT_DIR", dir.path().string());
    // 1 MB cap holds every record here; the point is the ranking,
    // so use a cap of 0 MB first: nothing admitted.
    EnvGuard::set("FVC_RESULT_CACHE_MB", "0");
    std::vector<fb::CellSpec> specs = {
        makeCell(fw::SpecInt::Go099),
        withFvc(makeCell(fw::SpecInt::Go099))};
    frc::ResultRepository capped;
    capped.runCells(specs, "capped sweep");
    // Nothing admitted: the store is empty (a zero-length file is
    // unreadable by design — there is no frame to validate), and a
    // rerun serves no hits.
    auto contents = frc::readResultFile(frc::resultFilePath());
    EXPECT_TRUE(!contents.ok() ||
                contents.value().records.empty());
    frc::ResultRepository rerun;
    rerun.runCells(specs, "capped rerun");
    EXPECT_EQ(rerun.storeHits(), 0u);
    EXPECT_EQ(rerun.simulations(), 2u);

    // The FVC cell costs more than the bare cell (extra structure
    // per access), so with room for one record the FVC cell is the
    // one protected.
    EXPECT_GT(frc::cellCost(specs[1]), frc::cellCost(specs[0]));
    EnvGuard::unset("FVC_RESULT_CACHE_MB");
    ASSERT_FALSE(frc::publishResults(
        frc::resultFilePath(),
        {makeRecord(fb::cellFingerprint(specs[0]),
                    frc::cellCost(specs[0]), 1),
         makeRecord(fb::cellFingerprint(specs[1]),
                    frc::cellCost(specs[1]), 2)},
        frc::kResultRecordBytes));
    auto kept = frc::readResultFile(frc::resultFilePath());
    ASSERT_TRUE(kept.ok());
    ASSERT_EQ(kept.value().records.size(), 1u);
    EXPECT_EQ(kept.value().records[0].fingerprint,
              fb::cellFingerprint(specs[1]));
}

TEST(ResultRepositoryTest, CacheMbOutOfRangeIsRejected)
{
    // 2^44 MB is 2^64 bytes: scaled unchecked it wraps to a 0-byte
    // cap that admits nothing (and 2^44 + 1 to a 1 MiB cap).
    EnvGuard env;
    EXPECT_EQ(frc::resultCapBytes(), UINT64_MAX);
    for (const char *bad : {"17592186044416", "17592186044417",
                            "18446744073709551616"}) {
        EnvGuard::set("FVC_RESULT_CACHE_MB", bad);
        const uint64_t warns = fu::warnCount();
        EXPECT_EQ(frc::resultCapBytes(), UINT64_MAX) << bad;
        EXPECT_EQ(fu::warnCount(), warns + 1) << bad;
    }
    // The largest accepted cap still fits in bytes.
    EnvGuard::set("FVC_RESULT_CACHE_MB", "17592186044415");
    EXPECT_EQ(frc::resultCapBytes(), 17592186044415ull << 20);
    EnvGuard::set("FVC_RESULT_CACHE_MB", "1");
    EXPECT_EQ(frc::resultCapBytes(), 1ull << 20);
}

TEST(ResultRepositoryTest, CostModelRanksWorkSensibly)
{
    auto base = makeCell(fw::SpecInt::Go099, 2000);
    EXPECT_GT(frc::cellCost(makeCell(fw::SpecInt::Go099, 4000)),
              frc::cellCost(base));
    EXPECT_GT(frc::cellCost(withFvc(base)), frc::cellCost(base));
    auto victim = base;
    victim.victim_entries = 64;
    EXPECT_GT(frc::cellCost(victim), frc::cellCost(base));
    auto two_level = base;
    two_level.l2.size_bytes = 128 * 1024;
    two_level.l2.line_bytes = 32;
    two_level.has_l2 = true;
    EXPECT_GT(frc::cellCost(two_level), frc::cellCost(base));
}

TEST(ResultRepositoryTest, DistinctCellKindsGetDistinctFingerprints)
{
    // The new CellSpec kinds must not collide with the plain kinds
    // they extend (a collision would serve a victim cell a bare-DMC
    // record).
    auto base = makeCell(fw::SpecInt::Go099);
    auto victim = base;
    victim.victim_entries = 16;
    auto two_level = base;
    two_level.l2.size_bytes = 16 * 1024;
    two_level.l2.line_bytes = 32;
    two_level.has_l2 = true;
    auto wt = base;
    wt.dmc.write_policy = fc::WritePolicy::WriteThrough;
    auto fp = base;
    fp.fp_name = fw::allSpecFpNames().front();

    std::vector<uint64_t> fps = {
        fb::cellFingerprint(base), fb::cellFingerprint(victim),
        fb::cellFingerprint(two_level), fb::cellFingerprint(wt),
        fb::cellFingerprint(fp),
        fb::cellFingerprint(withFvc(base))};
    for (size_t i = 0; i < fps.size(); ++i)
        for (size_t j = i + 1; j < fps.size(); ++j)
            EXPECT_NE(fps[i], fps[j]) << i << " vs " << j;

    // Victim entry count and L2 geometry feed the fingerprint.
    auto victim32 = base;
    victim32.victim_entries = 32;
    EXPECT_NE(fb::cellFingerprint(victim),
              fb::cellFingerprint(victim32));
    auto l2_big = two_level;
    l2_big.l2.size_bytes = 64 * 1024;
    EXPECT_NE(fb::cellFingerprint(two_level),
              fb::cellFingerprint(l2_big));
}

TEST(ResultRepositoryTest, CellFingerprintsArePinned)
{
    // Result records, fabric spills and gridbench's reference table
    // are keyed by these values (all but the SPECfp cell are seed-0
    // grid cells, so gridbench/reference_seed0.tsv holds the same
    // keys). A change that moves one orphans every record of that
    // kind already on disk, so it has to edit these literals.
    EnvGuard env;
    fb::CellSpec dmc; // Figure 10's bare DMC
    dmc.bench = fw::SpecInt::Gcc126;
    dmc.accesses = 400000;
    dmc.seed = 17;
    dmc.dmc.size_bytes = 16 * 1024;
    dmc.dmc.line_bytes = 32;

    auto fvc = dmc; // Figure 13's 16 KB DMC + 512-entry FVC
    fvc.bench = fw::SpecInt::M88ksim124;
    fvc.seed = 23;
    fvc.has_fvc = true;
    fvc.fvc.entries = 512;
    fvc.fvc.line_bytes = 32;
    fvc.fvc.code_bits = 3;

    auto victim = dmc; // Figure 15's 16-entry victim cache
    victim.bench = fw::SpecInt::Li130;
    victim.seed = 73;
    victim.dmc.size_bytes = 4 * 1024;
    victim.victim_entries = 16;

    auto l2 = dmc; // ext_two_level's L1 + L2
    l2.bench = fw::SpecInt::Perl134;
    l2.seed = 87;
    l2.has_l2 = true;
    l2.l2.size_bytes = 128 * 1024;
    l2.l2.line_bytes = 32;
    l2.l2.assoc = 4;

    auto wt = dmc; // ext_write_policy's write-through DMC
    wt.bench = fw::SpecInt::Vortex147;
    wt.seed = 83;
    wt.dmc.write_policy = fc::WritePolicy::WriteThrough;

    auto fp = dmc;
    fp.fp_name = "102.swim";

    EXPECT_EQ(fb::cellFingerprint(dmc), 0xabf21ac1e725275cull);
    EXPECT_EQ(fb::cellFingerprint(fvc), 0x0ed0c3ec61458fdaull);
    EXPECT_EQ(fb::cellFingerprint(victim), 0x946e715eb2e205dcull);
    EXPECT_EQ(fb::cellFingerprint(l2), 0x07ef6fa63b9ddccfull);
    EXPECT_EQ(fb::cellFingerprint(wt), 0x2fb4f69c1ef40ea9ull);
    EXPECT_EQ(fb::cellFingerprint(fp), 0x5a45c213a1a54cfcull);
}

// ---------------------------------------------------------------
// The thread backend's dispatch plan.
// ---------------------------------------------------------------

TEST(ResultRepositoryTest, PlanDispatchCoversEveryCellOnce)
{
    const auto cells = dispatchGrid(400000);
    std::set<uint64_t> traces;
    for (const auto &cell : cells)
        traces.insert(fb::cellTraceHash(cell));

    for (unsigned threads : {1u, 2u, 4u, 8u}) {
        SCOPED_TRACE("threads=" + std::to_string(threads));
        const auto plan = frc::planDispatch(cells, threads);

        // Every cell in exactly one unit; a lane unit holds lane
        // cells of one trace, any other unit a single cell.
        std::vector<int> seen(cells.size(), 0);
        for (const auto &unit : plan) {
            ASSERT_FALSE(unit.cells.empty());
            if (!unit.lane) {
                EXPECT_EQ(unit.cells.size(), 1u);
            }
            uint64_t cost = 0;
            for (size_t i : unit.cells) {
                ASSERT_LT(i, cells.size());
                ++seen[i];
                cost += frc::cellCost(cells[i]);
                EXPECT_EQ(laneEligible(cells[i]), unit.lane) << i;
                EXPECT_EQ(fb::cellTraceHash(cells[i]), unit.trace)
                    << i;
            }
            EXPECT_EQ(unit.cost, cost);
        }
        for (size_t i = 0; i < cells.size(); ++i)
            EXPECT_EQ(seen[i], 1) << cells[i].describe();

        // One thread never splits; four fill twice the pool.
        if (threads == 1) {
            EXPECT_EQ(plan.size(), 5u);
        }
        if (threads >= 4) {
            EXPECT_GE(plan.size(), 2 * threads);
        }

        // Each trace's first unit leads, then longest first.
        ASSERT_GE(plan.size(), traces.size());
        std::set<uint64_t> leading;
        for (size_t u = 0; u < traces.size(); ++u)
            EXPECT_TRUE(leading.insert(plan[u].trace).second) << u;
        for (size_t u = 1; u < plan.size(); ++u) {
            if (u != traces.size()) {
                EXPECT_GE(plan[u - 1].cost, plan[u].cost) << u;
            }
        }

        const auto again = frc::planDispatch(cells, threads);
        ASSERT_EQ(again.size(), plan.size());
        for (size_t u = 0; u < plan.size(); ++u) {
            EXPECT_EQ(again[u].cells, plan[u].cells);
            EXPECT_EQ(again[u].lane, plan[u].lane);
        }
    }
}

TEST(ResultRepositoryTest, SplitPlanMatchesDirectSimulation)
{
    EnvGuard env;
    // No FVC_RESULT_DIR: every cell dispatches, through the plan at
    // the shared pool's width. A pool with room for more than the 5
    // unsplit units must split a lane group.
    const auto cells = dispatchGrid(20000);
    const unsigned threads = fh::ThreadPool::shared().threadCount();
    const size_t unsplit = frc::planDispatch(cells, 1).size();
    if (2 * threads > unsplit) {
        EXPECT_GT(frc::planDispatch(cells, threads).size(), unsplit)
            << "no lane group split on " << threads << " threads";
    }

    frc::ResultRepository repo;
    auto results = repo.runCells(cells, "split plan sweep");
    ASSERT_EQ(results.size(), cells.size());
    EXPECT_EQ(repo.simulations(), cells.size());
    for (size_t i = 0; i < cells.size(); ++i) {
        ASSERT_TRUE(results[i]) << cells[i].describe();
        EXPECT_TRUE(results[i]->identical(fb::simulateCell(cells[i])))
            << cells[i].describe();
    }
}
