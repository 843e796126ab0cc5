/**
 * @file
 * Tests for the sweep daemon: protocol codec round-trips and
 * malformed-payload rejection, the FrameBuffer's stream reassembly
 * and poisoning, FVC_DAEMON and socket-path knobs, live-daemon
 * serving parity against direct simulation, a >=10k-frame malformed
 * fuzz against a live daemon, store hits answered while a miss waits
 * for its window or simulates, per-connection reply order, forked
 * multi-client dedup proven by repository counters,
 * daemon::runCells (served results equal in-process ones, and a
 * served FAILED cell reaches the client's failure report), lifecycle
 * (stale-socket rebind, live-daemon refusal, FVC_STRICT refusal,
 * graceful drain, a shutdown during a simulating batch, client
 * reconnect across restart), the store-level first-wins race
 * between a daemon publish and a direct writer, and the FAILED-cell
 * record path.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <optional>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include "daemon/client.hh"
#include "daemon/protocol.hh"
#include "daemon/server.hh"
#include "fabric/cell.hh"
#include "harness/parallel.hh"
#include "resultcache/repository.hh"
#include "resultcache/result_store.hh"
#include "util/framed.hh"
#include "workload/profile.hh"

#include "env_guard.hh"

namespace fd = fvc::daemon;
namespace fb = fvc::fabric;
namespace fc = fvc::cache;
namespace fh = fvc::harness;
namespace frc = fvc::resultcache;
namespace fu = fvc::util;
namespace fw = fvc::workload;
namespace fs = std::filesystem;

namespace {

using fvc::test::EnvGuard;
using fvc::test::ScopedEnv;
using fvc::test::TempDir;

/** A tiny bare-DMC cell (fast enough to simulate in tests). Use a
 * distinct @p seed per test so fingerprints never collide across
 * tests sharing the process-wide repository counters. */
fb::CellSpec
makeCell(fw::SpecInt bench, uint64_t seed, uint64_t accesses = 2000)
{
    fb::CellSpec cell;
    cell.bench = bench;
    cell.accesses = accesses;
    cell.seed = seed;
    cell.dmc.size_bytes = 4 * 1024;
    cell.dmc.line_bytes = 32;
    return cell;
}

/** CellStats whose every counter is a distinct function of
 * @p salt, so any mis-decoded field shows up as an inequality. */
fb::CellStats
makeStats(uint64_t salt)
{
    fb::CellStats stats;
    stats.cache.read_hits = salt * 3 + 1;
    stats.cache.read_misses = salt * 5 + 2;
    stats.cache.write_hits = salt * 7 + 3;
    stats.cache.write_misses = salt * 11 + 4;
    stats.cache.fills = salt * 13 + 5;
    stats.cache.writebacks = salt * 17 + 6;
    stats.cache.fetch_bytes = salt * 19 + 7;
    stats.cache.writeback_bytes = salt * 23 + 8;
    stats.fvc.fvc_read_hits = salt * 29 + 9;
    stats.fvc.fvc_write_hits = salt * 31 + 10;
    stats.fvc.partial_misses = salt * 37 + 11;
    stats.fvc.write_allocations = salt * 41 + 12;
    stats.fvc.insertions = salt * 43 + 13;
    stats.fvc.insertions_skipped = salt * 47 + 14;
    stats.fvc.fvc_writebacks = salt * 53 + 15;
    stats.fvc.occupancy_sum = 0.125 * static_cast<double>(salt);
    stats.fvc.occupancy_samples = salt * 59 + 16;
    return stats;
}

frc::ResultRecord
makeRecord(uint64_t fingerprint, uint64_t cost, uint64_t salt)
{
    frc::ResultRecord record;
    record.fingerprint = fingerprint;
    record.cost = cost;
    record.stats = makeStats(salt);
    return record;
}

/** Runs a Server on its own thread; stop() drains, joins, and
 * destroys it (closing and unlinking the socket). */
class ServerThread
{
  public:
    explicit ServerThread(const fd::Server::Options &options)
    {
        auto server = fd::Server::create(options);
        if (!server.ok()) {
            ADD_FAILURE() << server.error().describe();
            return;
        }
        server_ = std::move(server.value());
        thread_ = std::thread([this] { server_->run(); });
    }

    ~ServerThread() { stop(); }

    bool running() const { return server_ != nullptr; }

    void
    stop()
    {
        if (!server_)
            return;
        server_->requestStop();
        thread_.join();
        server_.reset();
    }

    /** Join without requesting a stop (the daemon was asked to shut
     * down over the wire); then destroy. */
    void
    joinAfterShutdown()
    {
        if (!server_)
            return;
        thread_.join();
        server_.reset();
    }

  private:
    std::unique_ptr<fd::Server> server_;
    std::thread thread_;
};

/** Raw (non-Client) connection for malformed-frame injection. */
int
connectRaw(const std::string &path)
{
    sockaddr_un addr;
    if (path.size() >= sizeof(addr.sun_path))
        return -1;
    std::memset(&addr, 0, sizeof(addr));
    addr.sun_family = AF_UNIX;
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0)
        return -1;
    if (::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                  sizeof(addr)) != 0) {
        ::close(fd);
        return -1;
    }
    return fd;
}

/** Best-effort write: a daemon that already closed the poisoned
 * connection makes later bytes fail, which is exactly the scenario
 * the fuzz exercises (ignore EPIPE/ECONNRESET, never SIGPIPE). */
void
sendRaw(int fd, const std::vector<uint8_t> &bytes)
{
    size_t sent = 0;
    while (sent < bytes.size()) {
        const ssize_t n =
            ::send(fd, bytes.data() + sent, bytes.size() - sent,
                   MSG_NOSIGNAL);
        if (n <= 0)
            return;
        sent += static_cast<size_t>(n);
    }
}

/** Ask for Stats until @p reached holds. The daemon answers Stats
 * while it batches, so this waits on an event, not on a guessed
 * duration. */
template <typename Reached>
void
awaitStats(fd::Client &client, Reached reached)
{
    while (true) {
        auto stats = client.stats();
        if (!stats.ok()) {
            ADD_FAILURE() << stats.error().describe();
            return;
        }
        if (reached(stats.value()))
            return;
    }
}

/** Publish doctored records for @p cells straight to the store, so
 * a daemon can only answer them from it. */
std::vector<frc::ResultRecord>
storeCells(const std::vector<fb::CellSpec> &cells, uint64_t salt)
{
    std::vector<frc::ResultRecord> records;
    for (const auto &cell : cells) {
        records.push_back(makeRecord(fb::cellFingerprint(cell),
                                     frc::cellCost(cell),
                                     salt + records.size()));
    }
    fs::create_directories(frc::resultDir());
    EXPECT_FALSE(frc::publishResults(frc::resultFilePath(), records,
                                     UINT64_MAX));
    return records;
}

/** Make the next simulating batch hang: one fabric worker blocks
 * on its first cell, so the batch ends only after the coordinator
 * kills it at the 1 s per-cell budget and a respawned worker
 * simulates the cell. */
void
hangNextBatch()
{
    EnvGuard::set("FVC_WORKERS", "1");
    EnvGuard::set("FVC_JOB_TIMEOUT_MS", "1000");
    EnvGuard::set("FVC_FAULT_SPEC", "hang_cell=0");
}

std::vector<fb::CellSpec>
sampleSpecVariants(uint64_t seed)
{
    std::vector<fb::CellSpec> cells;
    cells.push_back(makeCell(fw::SpecInt::Go099, seed));

    auto fvc = makeCell(fw::SpecInt::Gcc126, seed);
    fvc.fvc.entries = 128;
    fvc.fvc.line_bytes = 32;
    fvc.fvc.code_bits = 3;
    fvc.fvc.assoc = 2;
    fvc.has_fvc = true;
    fvc.policy.skip_barren_insertions = true;
    fvc.policy.write_allocate_frequent = true;
    fvc.policy.occupancy_sample_interval = 512;
    fvc.top_k = 9;
    cells.push_back(fvc);

    auto victim = makeCell(fw::SpecInt::Li130, seed);
    victim.victim_entries = 8;
    cells.push_back(victim);

    auto two_level = makeCell(fw::SpecInt::Perl134, seed);
    two_level.l2.size_bytes = 16 * 1024;
    two_level.l2.line_bytes = 32;
    two_level.l2.assoc = 4;
    two_level.has_l2 = true;
    cells.push_back(two_level);

    auto wt = makeCell(fw::SpecInt::Vortex147, seed);
    wt.dmc.write_policy = fc::WritePolicy::WriteThrough;
    wt.dmc.replacement = fc::Replacement::Random;
    wt.input = fw::InputSet::Test;
    cells.push_back(wt);

    auto fp = makeCell(fw::SpecInt::Go099, seed);
    fp.fp_name = fw::allSpecFpNames().front();
    cells.push_back(fp);
    return cells;
}

} // namespace

// ---------------------------------------------------------------
// Protocol codecs.
// ---------------------------------------------------------------

TEST(DaemonProtocolTest, PayloadCodecsRoundTrip)
{
    fd::Hello hello;
    hello.pid = 4242;
    auto hello2 = fd::decodeHello(fd::encodeHello(hello));
    ASSERT_TRUE(hello2.ok());
    EXPECT_EQ(hello2.value().version, fd::kProtocolVersion);
    EXPECT_EQ(hello2.value().pid, 4242u);

    auto token = fd::decodePing(fd::encodePing(0x1234'5678'9abcull));
    ASSERT_TRUE(token.ok());
    EXPECT_EQ(token.value(), 0x1234'5678'9abcull);

    auto count = fd::decodeBatchDone(fd::encodeBatchDone(77));
    ASSERT_TRUE(count.ok());
    EXPECT_EQ(count.value(), 77u);

    fd::ResultFrame result;
    result.index = 5;
    result.status = 1;
    result.fingerprint = 0xdeadbeefcafeull;
    result.stats = makeStats(3);
    auto result2 =
        fd::decodeResultFrame(fd::encodeResultFrame(result));
    ASSERT_TRUE(result2.ok());
    EXPECT_EQ(result2.value().index, 5u);
    EXPECT_EQ(result2.value().status, 1u);
    EXPECT_EQ(result2.value().fingerprint, 0xdeadbeefcafeull);
    EXPECT_TRUE(result2.value().stats.identical(result.stats));

    fd::DaemonStats stats;
    stats.pid = 99;
    stats.store_hits = 1;
    stats.dedups = 2;
    stats.simulations = 3;
    stats.store_writes = 4;
    stats.batches = 5;
    stats.submits = 6;
    stats.cells_received = 7;
    stats.results_sent = 8;
    stats.malformed_frames = 9;
    stats.connections = 10;
    auto stats2 =
        fd::decodeDaemonStats(fd::encodeDaemonStats(stats));
    ASSERT_TRUE(stats2.ok());
    EXPECT_EQ(stats2.value().pid, 99u);
    EXPECT_EQ(stats2.value().store_hits, 1u);
    EXPECT_EQ(stats2.value().dedups, 2u);
    EXPECT_EQ(stats2.value().simulations, 3u);
    EXPECT_EQ(stats2.value().store_writes, 4u);
    EXPECT_EQ(stats2.value().batches, 5u);
    EXPECT_EQ(stats2.value().submits, 6u);
    EXPECT_EQ(stats2.value().cells_received, 7u);
    EXPECT_EQ(stats2.value().results_sent, 8u);
    EXPECT_EQ(stats2.value().malformed_frames, 9u);
    EXPECT_EQ(stats2.value().connections, 10u);
}

TEST(DaemonProtocolTest, CellSpecsRoundTripEveryVariant)
{
    // Re-encoding the decoded cell must reproduce the original
    // bytes exactly: a byte-level equality proof covering every
    // field of every cell kind at once.
    auto cells = sampleSpecVariants(11);
    auto payload = fd::encodeSubmitCells(cells);
    auto decoded = fd::decodeSubmitCells(payload);
    ASSERT_TRUE(decoded.ok()) << decoded.error().describe();
    ASSERT_EQ(decoded.value().size(), cells.size());
    EXPECT_EQ(fd::encodeSubmitCells(decoded.value()), payload);
    for (size_t i = 0; i < cells.size(); ++i) {
        EXPECT_EQ(fb::cellFingerprint(decoded.value()[i]),
                  fb::cellFingerprint(cells[i]))
            << cells[i].describe();
    }
}

TEST(DaemonProtocolTest, MalformedPayloadsAreRejectedNotTrusted)
{
    EXPECT_FALSE(fd::decodeHello({1, 2, 3}).ok());
    EXPECT_FALSE(fd::decodePing({1, 2, 3, 4}).ok());
    EXPECT_FALSE(fd::decodeBatchDone({}).ok());
    EXPECT_FALSE(fd::decodeResultFrame({9, 9, 9}).ok());
    EXPECT_FALSE(fd::decodeDaemonStats({0}).ok());

    // Result status beyond FAILED is out of domain.
    fd::ResultFrame result;
    auto bytes = fd::encodeResultFrame(result);
    bytes[4] = 2;
    EXPECT_FALSE(fd::decodeResultFrame(bytes).ok());

    // An impossible cell count for the payload size.
    std::vector<uint8_t> submit = {0xff, 0xff, 0xff, 0xff};
    EXPECT_FALSE(fd::decodeSubmitCells(submit).ok());

    // Trailing bytes after the last cell.
    auto good = fd::encodeSubmitCells({makeCell(fw::SpecInt::Go099,
                                                1)});
    auto trailing = good;
    trailing.push_back(0);
    EXPECT_FALSE(fd::decodeSubmitCells(trailing).ok());

    // Every strict truncation of a valid submit payload fails
    // cleanly (a decoder mini-fuzz: no crash, no bogus success —
    // though a prefix that is itself a valid shorter encoding
    // cannot exist because the cell count pins the cell bytes).
    for (size_t len = 0; len < good.size(); ++len) {
        std::vector<uint8_t> cut(good.begin(),
                                 good.begin() +
                                     static_cast<ptrdiff_t>(len));
        EXPECT_FALSE(fd::decodeSubmitCells(cut).ok()) << len;
    }

    // Out-of-range enums and flags, flipped one at a time in an
    // otherwise valid encoding. Offsets follow the wire layout:
    // bench u32 | input u32 | name_len u32 | ...
    auto flip32 = [&](size_t offset, uint32_t value) {
        auto bad = good;
        bad[4 + offset] = static_cast<uint8_t>(value);
        bad[4 + offset + 1] = static_cast<uint8_t>(value >> 8);
        bad[4 + offset + 2] = static_cast<uint8_t>(value >> 16);
        bad[4 + offset + 3] = static_cast<uint8_t>(value >> 24);
        return fd::decodeSubmitCells(bad);
    };
    EXPECT_FALSE(flip32(0, 1000).ok());       // bench selector
    EXPECT_FALSE(flip32(4, 17).ok());         // input selector
    EXPECT_FALSE(flip32(8, 0xffffff).ok());   // name length

    // A cell mixing exclusive system kinds is refused even though
    // each field alone is in range.
    auto mixed = makeCell(fw::SpecInt::Go099, 1);
    mixed.has_fvc = true;
    mixed.fvc.entries = 32;
    mixed.victim_entries = 4;
    EXPECT_FALSE(
        fd::decodeSubmitCells(fd::encodeSubmitCells({mixed})).ok());
}

// ---------------------------------------------------------------
// FrameBuffer: stream reassembly and poisoning.
// ---------------------------------------------------------------

TEST(DaemonFrameBufferTest, ReassemblesFramesFedByteByByte)
{
    auto one = fu::frameBytes(fd::kDaemonMagic, fd::kKindPing,
                              fd::encodePing(111));
    auto two = fu::frameBytes(fd::kDaemonMagic, fd::kKindBatchDone,
                              fd::encodeBatchDone(222));
    std::vector<uint8_t> stream = one;
    stream.insert(stream.end(), two.begin(), two.end());

    fd::FrameBuffer buffer;
    std::vector<fu::Frame> frames;
    for (uint8_t byte : stream) {
        buffer.feed(&byte, 1);
        while (auto frame = buffer.next())
            frames.push_back(std::move(*frame));
    }
    ASSERT_EQ(frames.size(), 2u);
    EXPECT_EQ(frames[0].kind, fd::kKindPing);
    EXPECT_EQ(fd::decodePing(frames[0].payload).value(), 111u);
    EXPECT_EQ(frames[1].kind, fd::kKindBatchDone);
    EXPECT_EQ(fd::decodeBatchDone(frames[1].payload).value(), 222u);
    EXPECT_FALSE(buffer.poisoned());
    EXPECT_EQ(buffer.pendingBytes(), 0u);
}

TEST(DaemonFrameBufferTest, PoisonsPermanentlyOnCorruption)
{
    auto good = fu::frameBytes(fd::kDaemonMagic, fd::kKindPing,
                               fd::encodePing(5));

    // Bad magic.
    {
        fd::FrameBuffer buffer;
        auto bad = good;
        bad[0] ^= 0x40;
        buffer.feed(bad.data(), bad.size());
        EXPECT_FALSE(buffer.next().has_value());
        EXPECT_TRUE(buffer.poisoned());
        EXPECT_NE(buffer.poisonReason().find("magic"),
                  std::string::npos);
        // Poison is permanent: a pristine frame after it is never
        // served (a byte stream has no resync point).
        buffer.feed(good.data(), good.size());
        EXPECT_FALSE(buffer.next().has_value());
    }

    // Absurd length.
    {
        fd::FrameBuffer buffer;
        auto bad = good;
        bad[8] = 0xff;
        bad[9] = 0xff;
        bad[10] = 0xff;
        bad[11] = 0x7f;
        buffer.feed(bad.data(), bad.size());
        EXPECT_FALSE(buffer.next().has_value());
        EXPECT_TRUE(buffer.poisoned());
        EXPECT_NE(buffer.poisonReason().find("length"),
                  std::string::npos);
    }

    // Payload CRC mismatch.
    {
        fd::FrameBuffer buffer;
        auto bad = good;
        bad.back() ^= 0x01;
        buffer.feed(bad.data(), bad.size());
        EXPECT_FALSE(buffer.next().has_value());
        EXPECT_TRUE(buffer.poisoned());
        EXPECT_NE(buffer.poisonReason().find("CRC"),
                  std::string::npos);
    }
}

// ---------------------------------------------------------------
// FVC_DAEMON and FVC_DAEMON_SOCK: warn + default on bad values.
// ---------------------------------------------------------------

TEST(DaemonKnobsTest, ModeParsesStrictly)
{
    EnvGuard env;
    EXPECT_EQ(fd::daemonMode(), fd::DaemonMode::Auto);
    EnvGuard::set("FVC_DAEMON", "on");
    EXPECT_EQ(fd::daemonMode(), fd::DaemonMode::On);
    EnvGuard::set("FVC_DAEMON", "off");
    EXPECT_EQ(fd::daemonMode(), fd::DaemonMode::Off);
    EnvGuard::set("FVC_DAEMON", "auto");
    EXPECT_EQ(fd::daemonMode(), fd::DaemonMode::Auto);
    // Unknown values warn and fall back, never guess.
    EnvGuard::set("FVC_DAEMON", "ON");
    EXPECT_EQ(fd::daemonMode(), fd::DaemonMode::Auto);
    EnvGuard::set("FVC_DAEMON", "banana");
    EXPECT_EQ(fd::daemonMode(), fd::DaemonMode::Auto);
    EXPECT_STREQ(fd::daemonModeName(fd::DaemonMode::On), "on");
    EXPECT_STREQ(fd::daemonModeName(fd::DaemonMode::Off), "off");
    EXPECT_STREQ(fd::daemonModeName(fd::DaemonMode::Auto), "auto");
}

TEST(DaemonKnobsTest, SocketPathHonorsEnvironment)
{
    EnvGuard env;
    EXPECT_NE(fd::socketPath().find("fvc_sweepd-"),
              std::string::npos);
    EnvGuard::set("FVC_DAEMON_SOCK", "/tmp/custom-daemon.sock");
    EXPECT_EQ(fd::socketPath(), "/tmp/custom-daemon.sock");
}

// ---------------------------------------------------------------
// Live daemon: serving parity, control frames, degradation.
// ---------------------------------------------------------------

TEST(DaemonServerTest, ServesCellsByteIdenticallyToDirectSimulation)
{
    EnvGuard env;
    TempDir dir;
    fd::Server::Options options;
    options.socket_path = dir.file("d.sock");
    options.batch_window_ms = 2;
    ServerThread server(options);
    ASSERT_TRUE(server.running());

    fd::Client::Options copts;
    copts.socket_path = options.socket_path;
    auto client = fd::Client::connect(copts);
    ASSERT_TRUE(client.ok()) << client.error().describe();
    EXPECT_EQ(client.value().daemonPid(),
              static_cast<uint32_t>(::getpid()));

    auto specs = sampleSpecVariants(101);
    specs.push_back(specs.front()); // duplicate fingerprint
    auto served = client.value().submit(specs);
    ASSERT_TRUE(served.ok()) << served.error().describe();
    ASSERT_EQ(served.value().size(), specs.size());
    for (size_t i = 0; i < specs.size(); ++i) {
        ASSERT_TRUE(served.value()[i]) << specs[i].describe();
        auto direct = fb::simulateCell(specs[i]);
        EXPECT_TRUE(served.value()[i]->identical(direct))
            << specs[i].describe();
    }
}

TEST(DaemonServerTest, PingStatsAndShutdownLifecycle)
{
    EnvGuard env;
    TempDir dir;
    fd::Server::Options options;
    options.socket_path = dir.file("d.sock");
    ServerThread server(options);
    ASSERT_TRUE(server.running());

    fd::Client::Options copts;
    copts.socket_path = options.socket_path;
    auto client = fd::Client::connect(copts);
    ASSERT_TRUE(client.ok()) << client.error().describe();

    auto token = client.value().ping(0xfeedface);
    ASSERT_TRUE(token.ok()) << token.error().describe();
    EXPECT_EQ(token.value(), 0xfeedfaceull);

    auto stats = client.value().stats();
    ASSERT_TRUE(stats.ok()) << stats.error().describe();
    EXPECT_EQ(stats.value().version, fd::kProtocolVersion);
    EXPECT_EQ(stats.value().pid,
              static_cast<uint32_t>(::getpid()));
    EXPECT_GE(stats.value().connections, 1u);

    ASSERT_FALSE(client.value().shutdownDaemon());
    server.joinAfterShutdown();
    // The destructor unlinked the socket: nothing listens anymore.
    EXPECT_FALSE(fs::exists(options.socket_path));
}

TEST(DaemonServerTest, FailedCellReturnsFailedRecordNotADeadDaemon)
{
    EnvGuard env;
    TempDir dir;
    fd::Server::Options options;
    options.socket_path = dir.file("d.sock");
    options.batch_window_ms = 2;
    ServerThread server(options);
    ASSERT_TRUE(server.running());

    fd::Client::Options copts;
    copts.socket_path = options.socket_path;
    auto client = fd::Client::connect(copts);
    ASSERT_TRUE(client.ok()) << client.error().describe();

    // Aim the harness fault injector at the next sweep job the
    // daemon will submit (sampling consumes one global index).
    const size_t current = fh::detail::nextGlobalSweepIndex();
    EnvGuard::set("FVC_FAULT_SPEC",
                  "sweep_job=" + std::to_string(current + 1));
    auto doomed = client.value().submit(
        {makeCell(fw::SpecInt::Go099, 5150)});
    EnvGuard::unset("FVC_FAULT_SPEC");
    ASSERT_TRUE(doomed.ok()) << doomed.error().describe();
    ASSERT_EQ(doomed.value().size(), 1u);
    EXPECT_FALSE(doomed.value()[0].has_value());

    // The daemon survived the failure and serves the next sweep.
    auto healthy = client.value().submit(
        {makeCell(fw::SpecInt::Go099, 5151)});
    ASSERT_TRUE(healthy.ok()) << healthy.error().describe();
    ASSERT_EQ(healthy.value().size(), 1u);
    EXPECT_TRUE(healthy.value()[0].has_value());
}

TEST(DaemonServerTest, TenThousandMalformedFramesNeverKillTheDaemon)
{
    EnvGuard env;
    TempDir dir;
    fd::Server::Options options;
    options.socket_path = dir.file("d.sock");
    options.batch_window_ms = 2;
    ServerThread server(options);
    ASSERT_TRUE(server.running());

    auto good =
        fu::frameBytes(fd::kDaemonMagic, fd::kKindPing,
                       fd::encodePing(1));
    std::mt19937_64 rng(20260807);
    auto randomByte = [&rng] {
        return static_cast<uint8_t>(rng() & 0xff);
    };

    constexpr int kConnections = 400;
    constexpr int kFramesPerConnection = 30;
    uint64_t frames_sent = 0;
    for (int c = 0; c < kConnections; ++c) {
        int fd = connectRaw(options.socket_path);
        ASSERT_GE(fd, 0) << "daemon stopped accepting at conn " << c;
        std::vector<uint8_t> burst;
        for (int f = 0; f < kFramesPerConnection; ++f) {
            auto frame = good;
            switch ((c + f) % 5) {
              case 0: // single random bit flip anywhere
                frame[rng() % frame.size()] ^=
                    static_cast<uint8_t>(1u << (rng() % 8));
                break;
              case 1: // corrupt magic
                frame[rng() % 4] ^= 0x80;
                break;
              case 2: // absurd advertised length
                frame[8] = randomByte();
                frame[9] = randomByte();
                frame[10] = 0xff;
                frame[11] = 0x7f;
                break;
              case 3: // truncated frame (drop the tail)
                frame.resize(1 + rng() % (frame.size() - 1));
                break;
              default: // pure garbage bytes
                frame.resize(16 + rng() % 64);
                for (auto &byte : frame)
                    byte = randomByte();
                break;
            }
            burst.insert(burst.end(), frame.begin(), frame.end());
            ++frames_sent;
        }
        sendRaw(fd, burst);
        ::close(fd);

        // The daemon must still answer a well-formed client while
        // the garbage pours in.
        if (c % 50 == 0) {
            fd::Client::Options copts;
            copts.socket_path = options.socket_path;
            auto probe = fd::Client::connect(copts);
            ASSERT_TRUE(probe.ok())
                << "daemon unreachable after conn " << c << ": "
                << probe.error().describe();
            auto token = probe.value().ping(c);
            ASSERT_TRUE(token.ok()) << token.error().describe();
            EXPECT_EQ(token.value(), static_cast<uint64_t>(c));
        }
    }
    EXPECT_GE(frames_sent, 10000u);

    // After the storm: a full submit conversation still works, and
    // the daemon accounted the malformed connections.
    fd::Client::Options copts;
    copts.socket_path = options.socket_path;
    auto client = fd::Client::connect(copts);
    ASSERT_TRUE(client.ok()) << client.error().describe();
    auto served = client.value().submit(
        {makeCell(fw::SpecInt::Go099, 8181)});
    ASSERT_TRUE(served.ok()) << served.error().describe();
    ASSERT_EQ(served.value().size(), 1u);
    EXPECT_TRUE(served.value()[0].has_value());
    auto stats = client.value().stats();
    ASSERT_TRUE(stats.ok());
    EXPECT_GE(stats.value().malformed_frames, 100u);
    EXPECT_GE(stats.value().connections,
              static_cast<uint64_t>(kConnections));
}

// ---------------------------------------------------------------
// Hits are answered on arrival; misses batch off the poll thread.
// ---------------------------------------------------------------

TEST(DaemonServerTest, StoreHitsSkipTheBatchWindow)
{
    EnvGuard env;
    TempDir dir;
    EnvGuard::set("FVC_RESULT_DIR", dir.file("results"));
    std::vector<fb::CellSpec> hits = {
        makeCell(fw::SpecInt::Go099, 9101),
        makeCell(fw::SpecInt::Gcc126, 9101),
        makeCell(fw::SpecInt::Li130, 9101),
    };
    const auto records = storeCells(hits, 61);
    hits.push_back(hits.front()); // a repeat is a hit too

    fd::Server::Options options;
    options.socket_path = dir.file("d.sock");
    // A window far longer than the test: a hit that joined it
    // would not return before the drain at the end.
    options.batch_window_ms = 60 * 1000;
    ServerThread server(options);
    ASSERT_TRUE(server.running());

    fd::Client::Options copts;
    copts.socket_path = options.socket_path;
    auto writer = fd::Client::connect(copts);
    ASSERT_TRUE(writer.ok()) << writer.error().describe();
    auto reader = fd::Client::connect(copts);
    ASSERT_TRUE(reader.ok()) << reader.error().describe();
    auto before = reader.value().stats();
    ASSERT_TRUE(before.ok()) << before.error().describe();

    std::atomic<bool> novel_served{false};
    std::thread novel([&] {
        auto result = writer.value().submit(
            {makeCell(fw::SpecInt::Perl134, 9101)});
        novel_served = result.ok() && result.value()[0].has_value();
    });
    awaitStats(reader.value(), [&](const fd::DaemonStats &now) {
        return now.submits > before.value().submits;
    });

    // The novel cell holds the window open; the hits pass it.
    auto served = reader.value().submit(hits);
    EXPECT_FALSE(novel_served.load());
    auto after = reader.value().stats();

    // The drain dispatches the pending novel cell.
    server.stop();
    novel.join();
    EXPECT_TRUE(novel_served.load());

    ASSERT_TRUE(served.ok()) << served.error().describe();
    ASSERT_EQ(served.value().size(), hits.size());
    for (size_t i = 0; i < hits.size(); ++i) {
        ASSERT_TRUE(served.value()[i].has_value());
        EXPECT_TRUE(served.value()[i]->identical(
            records[i % records.size()].stats));
    }
    ASSERT_TRUE(after.ok()) << after.error().describe();
    EXPECT_EQ(after.value().batches, before.value().batches);
    EXPECT_EQ(after.value().store_hits - before.value().store_hits,
              hits.size());
}

TEST(DaemonServerTest, HitsAndPingsPassASimulatingBatch)
{
    EnvGuard env;
    TempDir dir;
    EnvGuard::set("FVC_RESULT_DIR", dir.file("results"));
    hangNextBatch();
    const std::vector<fb::CellSpec> hits = {
        makeCell(fw::SpecInt::Go099, 9201),
        makeCell(fw::SpecInt::Gcc126, 9201),
    };
    const auto records = storeCells(hits, 71);
    const auto novel = makeCell(fw::SpecInt::Li130, 9201);

    fd::Server::Options options;
    options.socket_path = dir.file("d.sock");
    options.batch_window_ms = 0;
    ServerThread server(options);
    ASSERT_TRUE(server.running());

    fd::Client::Options copts;
    copts.socket_path = options.socket_path;
    std::vector<fd::Client> clients;
    for (int c = 0; c < 3; ++c) {
        auto client = fd::Client::connect(copts);
        ASSERT_TRUE(client.ok()) << client.error().describe();
        clients.push_back(std::move(client.value()));
    }
    auto &reader = clients[1];
    auto before = reader.stats();
    ASSERT_TRUE(before.ok()) << before.error().describe();

    // Client 0's novel cell starts a batch that hangs in the
    // fabric until the cell's budget runs out.
    std::atomic<bool> batch_replied{false};
    std::optional<fb::CellStats> simulated;
    std::thread writer([&] {
        auto result = clients[0].submit({novel});
        if (result.ok())
            simulated = result.value()[0];
        batch_replied = true;
    });
    awaitStats(reader, [&](const fd::DaemonStats &now) {
        return now.batches > before.value().batches;
    });

    // A hit and a Ping from a second client come back while it
    // simulates.
    auto served = reader.submit(hits);
    auto pong = reader.ping(92);
    EXPECT_FALSE(batch_replied.load());

    // A third client asks for the same novel cell mid-batch: it
    // waits for the next batch, which finds it in the store.
    std::optional<fb::CellStats> repeated;
    std::thread third([&] {
        auto result = clients[2].submit({novel});
        if (result.ok())
            repeated = result.value()[0];
    });
    awaitStats(reader, [&](const fd::DaemonStats &now) {
        return now.submits > before.value().submits + 2;
    });
    EXPECT_FALSE(batch_replied.load());
    writer.join();
    third.join();

    ASSERT_TRUE(served.ok()) << served.error().describe();
    for (size_t i = 0; i < hits.size(); ++i) {
        ASSERT_TRUE(served.value()[i].has_value());
        EXPECT_TRUE(served.value()[i]->identical(records[i].stats));
    }
    ASSERT_TRUE(pong.ok()) << pong.error().describe();
    EXPECT_EQ(pong.value(), 92u);
    ASSERT_TRUE(simulated.has_value());
    ASSERT_TRUE(repeated.has_value());
    EXPECT_TRUE(repeated->identical(*simulated));
    EXPECT_TRUE(simulated->identical(fb::simulateCell(novel)));
    auto after = reader.stats();
    ASSERT_TRUE(after.ok()) << after.error().describe();
    EXPECT_EQ(after.value().simulations - before.value().simulations,
              1u);
}

TEST(DaemonServerTest, RepliesKeepEachConnectionsSubmissionOrder)
{
    EnvGuard env;
    TempDir dir;
    EnvGuard::set("FVC_RESULT_DIR", dir.file("results"));
    const std::vector<fb::CellSpec> hits = {
        makeCell(fw::SpecInt::Go099, 9301),
        makeCell(fw::SpecInt::Gcc126, 9301),
    };
    storeCells(hits, 81);

    fd::Server::Options options;
    options.socket_path = dir.file("d.sock");
    options.batch_window_ms = 60 * 1000;
    ServerThread server(options);
    ASSERT_TRUE(server.running());
    fd::Client::Options copts;
    copts.socket_path = options.socket_path;
    auto monitor = fd::Client::connect(copts);
    ASSERT_TRUE(monitor.ok()) << monitor.error().describe();
    auto before = monitor.value().stats();
    ASSERT_TRUE(before.ok()) << before.error().describe();

    // One connection pipelines a one-cell miss, then a two-cell
    // hit, without waiting for the first reply.
    const int fd = connectRaw(options.socket_path);
    ASSERT_GE(fd, 0);
    auto stream = fu::frameBytes(fd::kDaemonMagic, fd::kKindHello,
                                 fd::encodeHello({}));
    for (const auto &cells :
         {std::vector{makeCell(fw::SpecInt::Li130, 9301)}, hits}) {
        const auto frame =
            fu::frameBytes(fd::kDaemonMagic, fd::kKindSubmitCells,
                           fd::encodeSubmitCells(cells));
        stream.insert(stream.end(), frame.begin(), frame.end());
    }
    sendRaw(fd, stream);
    awaitStats(monitor.value(), [&](const fd::DaemonStats &now) {
        return now.submits == before.value().submits + 2;
    });
    server.stop(); // the drain dispatches the miss

    fd::FrameBuffer replies;
    uint8_t buffer[4096];
    ssize_t n;
    while ((n = ::recv(fd, buffer, sizeof(buffer), 0)) > 0)
        replies.feed(buffer, static_cast<size_t>(n));
    ::close(fd);
    std::vector<uint32_t> kinds;
    std::vector<uint64_t> done_counts;
    while (auto frame = replies.next()) {
        kinds.push_back(frame->kind);
        if (frame->kind == fd::kKindBatchDone)
            done_counts.push_back(
                fd::decodeBatchDone(frame->payload).value());
    }
    EXPECT_EQ(kinds,
              (std::vector<uint32_t>{
                  fd::kKindHelloAck, fd::kKindResult,
                  fd::kKindBatchDone, fd::kKindResult,
                  fd::kKindResult, fd::kKindBatchDone}));
    EXPECT_EQ(done_counts, (std::vector<uint64_t>{1, 2}));
}

// ---------------------------------------------------------------
// Concurrency: forked clients share one simulation per fingerprint.
// ---------------------------------------------------------------

TEST(DaemonServerTest, ForkedClientsShareOneSimulationPerFingerprint)
{
    EnvGuard env;
    TempDir dir;
    // The store makes the dedup proof timing-independent: cells
    // coalesced into one batch collapse via the repository's dedup
    // counter, cells arriving in later batches become store hits —
    // either way the simulations counter moves once per distinct
    // fingerprint.
    EnvGuard::set("FVC_RESULT_DIR", dir.file("results"));
    fd::Server::Options options;
    options.socket_path = dir.file("d.sock");
    options.batch_window_ms = 25;
    ServerThread server(options);
    ASSERT_TRUE(server.running());

    // Each client submits the same overlapping grid: 6 cells, 4
    // distinct fingerprints.
    std::vector<fb::CellSpec> grid = {
        makeCell(fw::SpecInt::Go099, 3101),
        makeCell(fw::SpecInt::Gcc126, 3101),
        makeCell(fw::SpecInt::Li130, 3101),
        makeCell(fw::SpecInt::Perl134, 3101),
        makeCell(fw::SpecInt::Go099, 3101),
        makeCell(fw::SpecInt::Gcc126, 3101),
    };
    constexpr uint64_t kDistinct = 4;
    constexpr int kClients = 4;

    fd::Client::Options copts;
    copts.socket_path = options.socket_path;
    auto monitor = fd::Client::connect(copts);
    ASSERT_TRUE(monitor.ok()) << monitor.error().describe();
    auto before = monitor.value().stats();
    ASSERT_TRUE(before.ok()) << before.error().describe();

    std::vector<pid_t> children;
    for (int c = 0; c < kClients; ++c) {
        pid_t pid = ::fork();
        ASSERT_GE(pid, 0);
        if (pid == 0) {
            // Child: plain client, no gtest machinery, exit codes
            // name the failure stage.
            fd::Client::Options o;
            o.socket_path = options.socket_path;
            auto client = fd::Client::connect(o);
            if (!client.ok())
                ::_exit(2);
            auto served = client.value().submit(grid);
            if (!served.ok())
                ::_exit(3);
            if (served.value().size() != grid.size())
                ::_exit(4);
            for (const auto &slot : served.value()) {
                if (!slot)
                    ::_exit(5);
            }
            ::_exit(0);
        }
        children.push_back(pid);
    }
    for (pid_t pid : children) {
        int status = 0;
        ASSERT_EQ(::waitpid(pid, &status, 0), pid);
        ASSERT_TRUE(WIFEXITED(status));
        EXPECT_EQ(WEXITSTATUS(status), 0)
            << "client child failed at stage "
            << WEXITSTATUS(status);
    }

    auto after = monitor.value().stats();
    ASSERT_TRUE(after.ok()) << after.error().describe();
    const uint64_t cells =
        after.value().cells_received - before.value().cells_received;
    const uint64_t simulations =
        after.value().simulations - before.value().simulations;
    const uint64_t collapsed =
        (after.value().dedups + after.value().store_hits) -
        (before.value().dedups + before.value().store_hits);
    EXPECT_EQ(cells, grid.size() * kClients);
    EXPECT_EQ(simulations, kDistinct);
    EXPECT_EQ(collapsed, grid.size() * kClients - kDistinct);
}

// ---------------------------------------------------------------
// daemon::runCells: the entry point every cacheable bench calls.
// ---------------------------------------------------------------

TEST(DaemonRunCellsTest, ServesInProcessResultsAndReportsFailedCells)
{
    EnvGuard env;
    TempDir dir;
    fd::Server::Options options;
    options.socket_path = dir.file("d.sock");
    options.batch_window_ms = 2;
    ServerThread server(options);
    ASSERT_TRUE(server.running());
    EnvGuard::set("FVC_DAEMON_SOCK", options.socket_path);

    const auto cells = sampleSpecVariants(707);
    EnvGuard::set("FVC_DAEMON", "on");
    const auto served = fd::runCells(cells, "served grid");
    EnvGuard::set("FVC_DAEMON", "off");
    const auto local = fd::runCells(cells, "in-process grid");
    ASSERT_EQ(served.size(), cells.size());
    ASSERT_EQ(local.size(), cells.size());
    for (size_t i = 0; i < cells.size(); ++i) {
        ASSERT_TRUE(served[i] && local[i]) << cells[i].describe();
        EXPECT_TRUE(served[i]->identical(*local[i]))
            << cells[i].describe();
    }

    // A cell the daemon fails reaches the client's own failure
    // report, the one FVC_STRICT=1 makes fatal. The daemon's batch
    // reports it too, under its own name, so look for the client's.
    EnvGuard::set("FVC_DAEMON", "on");
    const size_t current = fh::detail::nextGlobalSweepIndex();
    EnvGuard::set("FVC_FAULT_SPEC",
                  "sweep_job=" + std::to_string(current + 1));
    ::testing::internal::CaptureStdout();
    const auto doomed = fd::runCells(
        {makeCell(fw::SpecInt::Go099, 708)}, "served doomed sweep");
    const std::string out = ::testing::internal::GetCapturedStdout();
    EnvGuard::unset("FVC_FAULT_SPEC");
    ASSERT_EQ(doomed.size(), 1u);
    EXPECT_FALSE(doomed[0].has_value());
    EXPECT_NE(out.find("FAILED sweep jobs — served doomed sweep"),
              std::string::npos)
        << out;
    EXPECT_NE(out.find("failed in fvc_sweepd pid " +
                       std::to_string(::getpid())),
              std::string::npos)
        << out;
}

TEST(DaemonRunCellsTest, WarmExpectationIsCheckedInProcess)
{
    // A daemon on an empty store simulates what it is asked and
    // replies as it would from a warm one. So a client's warm
    // expectation holds against its own empty store: "auto"
    // resolves in-process and misses, "on" refuses to be served.
    // Each client runs in a fresh process ("threadsafe" death tests
    // re-execute the binary; a fork of this one would inherit the
    // worker pool's bookkeeping but not its threads) and forks its
    // own daemon, which never sees the flag. The clients' scratch
    // dirs nest in this test's, so they are removed with it.
    EnvGuard env;
    TempDir dir;
    ScopedEnv nest("TMPDIR", dir.path().string());
    const std::vector<fb::CellSpec> cells = {
        makeCell(fw::SpecInt::Go099, 7301)};
    auto resolveWarm = [&](const char *mode) {
        EnvGuard::set("FVC_RESULT_DIR", dir.file("daemon-results"));
        fd::Server::Options options;
        options.socket_path = dir.file("d.sock");
        options.batch_window_ms = 2;
        auto server = fd::Server::create(options);
        if (!server.ok())
            std::exit(2);
        const pid_t client = ::getpid();
        if (::fork() == 0) {
            ::prctl(PR_SET_PDEATHSIG, SIGKILL);
            if (::getppid() == client)
                server.value()->run();
            ::_exit(0);
        }
        EnvGuard::set("FVC_DAEMON", mode);
        EnvGuard::set("FVC_DAEMON_SOCK", options.socket_path);
        EnvGuard::set("FVC_RESULT_DIR", dir.file("client-results"));
        EnvGuard::set("FVC_RESULT_EXPECT_WARM", "1");
        fd::runCells(cells, "warm sweep");
        std::exit(0);
    };
    const std::string style = ::testing::FLAGS_gtest_death_test_style;
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    EXPECT_EXIT(resolveWarm("auto"), ::testing::ExitedWithCode(1),
                "FVC_RESULT_EXPECT_WARM is set but 1 of 1 cell\\(s\\) "
                "in warm sweep missed the result cache");
    EXPECT_EXIT(resolveWarm("on"), ::testing::ExitedWithCode(1),
                "FVC_DAEMON=on cannot serve warm sweep under "
                "FVC_RESULT_EXPECT_WARM=1");
    ::testing::FLAGS_gtest_death_test_style = style;
}

// ---------------------------------------------------------------
// Lifecycle: stale sockets, live-daemon refusal, drain, restart.
// ---------------------------------------------------------------

TEST(DaemonLifecycleTest, StaleSocketIsCleanedAndRebound)
{
    EnvGuard env;
    TempDir dir;
    const std::string path = dir.file("stale.sock");

    // A dead daemon's leftover: a bound socket file nobody accepts
    // on (bind the file, then close without unlinking).
    sockaddr_un addr;
    std::memset(&addr, 0, sizeof(addr));
    addr.sun_family = AF_UNIX;
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    ASSERT_GE(fd, 0);
    ASSERT_EQ(::bind(fd, reinterpret_cast<sockaddr *>(&addr),
                     sizeof(addr)),
              0);
    ::close(fd);
    ASSERT_TRUE(fs::exists(path));

    fd::Server::Options options;
    options.socket_path = path;
    ServerThread server(options);
    ASSERT_TRUE(server.running());

    fd::Client::Options copts;
    copts.socket_path = path;
    auto client = fd::Client::connect(copts);
    ASSERT_TRUE(client.ok()) << client.error().describe();
    EXPECT_TRUE(client.value().ping(1).ok());
}

TEST(DaemonLifecycleTest, LiveDaemonIsNotDisplaced)
{
    EnvGuard env;
    TempDir dir;
    fd::Server::Options options;
    options.socket_path = dir.file("d.sock");
    ServerThread server(options);
    ASSERT_TRUE(server.running());

    auto second = fd::Server::create(options);
    ASSERT_FALSE(second.ok());
    EXPECT_NE(second.error().message.find("already serving"),
              std::string::npos);

    // The incumbent is untouched.
    fd::Client::Options copts;
    copts.socket_path = options.socket_path;
    auto client = fd::Client::connect(copts);
    ASSERT_TRUE(client.ok()) << client.error().describe();
    EXPECT_TRUE(client.value().ping(2).ok());
}

TEST(DaemonLifecycleTest, StrictModeIsRefusedAsAClientSetting)
{
    // Strict mode makes a failed batch fatal: a strict daemon would
    // die on its first failed cell and strand every client.
    EnvGuard env;
    TempDir dir;
    EnvGuard::set("FVC_STRICT", "1");
    fd::Server::Options options;
    options.socket_path = dir.file("d.sock");
    auto server = fd::Server::create(options);
    ASSERT_FALSE(server.ok());
    EXPECT_EQ(server.error().code, fu::ErrorCode::Invalid);
    EXPECT_NE(server.error().message.find(
                  "FVC_STRICT=1 is a client-side setting"),
              std::string::npos)
        << server.error().describe();
    EXPECT_FALSE(fs::exists(options.socket_path));
}

TEST(DaemonLifecycleTest, GracefulShutdownDrainsInFlightBatches)
{
    EnvGuard env;
    TempDir dir;
    fd::Server::Options options;
    options.socket_path = dir.file("d.sock");
    // A batch window far longer than the test: the submitted cells
    // sit pending until the shutdown drain dispatches them.
    options.batch_window_ms = 60 * 1000;
    ServerThread server(options);
    ASSERT_TRUE(server.running());

    fd::Client::Options copts;
    copts.socket_path = options.socket_path;
    copts.timeout_ms = 30 * 1000;
    auto submitter = fd::Client::connect(copts);
    ASSERT_TRUE(submitter.ok()) << submitter.error().describe();
    auto controller = fd::Client::connect(copts);
    ASSERT_TRUE(controller.ok()) << controller.error().describe();

    auto before = controller.value().stats();
    ASSERT_TRUE(before.ok());

    std::atomic<bool> served{false};
    std::thread submit_thread([&] {
        auto result = submitter.value().submit(
            {makeCell(fw::SpecInt::Go099, 6001),
             makeCell(fw::SpecInt::Gcc126, 6001)});
        if (result.ok() && result.value().size() == 2 &&
            result.value()[0] && result.value()[1])
            served = true;
    });

    // Wait until the daemon holds the submission in its pending
    // batch (the submits counter moves on receipt, long before the
    // window would dispatch).
    awaitStats(controller.value(), [&](const fd::DaemonStats &now) {
        return now.submits > before.value().submits;
    });

    // Shutdown must dispatch the pending batch before the ack: the
    // blocked submitter gets its results, not an EOF.
    ASSERT_FALSE(controller.value().shutdownDaemon());
    submit_thread.join();
    server.joinAfterShutdown();
    EXPECT_TRUE(served.load());
}

TEST(DaemonLifecycleTest, ShutdownDeliversASimulatingBatchFirst)
{
    EnvGuard env;
    TempDir dir;
    hangNextBatch();
    fd::Server::Options options;
    options.socket_path = dir.file("d.sock");
    options.batch_window_ms = 0;
    ServerThread server(options);
    ASSERT_TRUE(server.running());

    fd::Client::Options copts;
    copts.socket_path = options.socket_path;
    copts.timeout_ms = 30 * 1000;
    auto submitter = fd::Client::connect(copts);
    ASSERT_TRUE(submitter.ok()) << submitter.error().describe();
    auto controller = fd::Client::connect(copts);
    ASSERT_TRUE(controller.ok()) << controller.error().describe();
    auto before = controller.value().stats();
    ASSERT_TRUE(before.ok()) << before.error().describe();

    std::atomic<bool> served{false};
    std::thread submit_thread([&] {
        auto result = submitter.value().submit(
            {makeCell(fw::SpecInt::Go099, 6101)});
        served = result.ok() && result.value()[0].has_value();
    });
    awaitStats(controller.value(), [&](const fd::DaemonStats &now) {
        return now.batches > before.value().batches;
    });

    // The batch is simulating: the ack waits for its results. A
    // daemon that exited without them would leave the submitter
    // with nothing to reconnect to.
    EXPECT_FALSE(controller.value().shutdownDaemon());
    submit_thread.join();
    server.joinAfterShutdown();
    EXPECT_TRUE(served.load());
}

TEST(DaemonLifecycleTest, ClientReconnectsAcrossDaemonRestart)
{
    EnvGuard env;
    TempDir dir;
    fd::Server::Options options;
    options.socket_path = dir.file("d.sock");
    options.batch_window_ms = 2;

    auto first = std::make_unique<ServerThread>(options);
    ASSERT_TRUE(first->running());

    fd::Client::Options copts;
    copts.socket_path = options.socket_path;
    auto client = fd::Client::connect(copts);
    ASSERT_TRUE(client.ok()) << client.error().describe();
    ASSERT_TRUE(client.value().ping(1).ok());

    // Kill the daemon under the connected client, then bring up a
    // fresh one on the same path.
    first->stop();
    first.reset();
    ServerThread second(options);
    ASSERT_TRUE(second.running());

    // The client notices the dead connection (EOF or send failure)
    // and transparently reconnects and resubmits.
    auto served = client.value().submit(
        {makeCell(fw::SpecInt::Go099, 7001)});
    ASSERT_TRUE(served.ok()) << served.error().describe();
    ASSERT_EQ(served.value().size(), 1u);
    EXPECT_TRUE(served.value()[0].has_value());
}

// ---------------------------------------------------------------
// Store-level race: daemon publish vs a direct writer, first-wins.
// ---------------------------------------------------------------

TEST(DaemonStoreRaceTest, DaemonPublishRacesDirectWriterFirstWins)
{
    EnvGuard env;
    TempDir dir;
    EnvGuard::set("FVC_RESULT_DIR", dir.file("results"));
    fs::create_directories(dir.file("results"));
    const std::string store = frc::resultFilePath();

    fd::Server::Options options;
    options.socket_path = dir.file("d.sock");
    options.batch_window_ms = 2;
    ServerThread server(options);
    ASSERT_TRUE(server.running());

    fd::Client::Options copts;
    copts.socket_path = options.socket_path;
    auto client = fd::Client::connect(copts);
    ASSERT_TRUE(client.ok()) << client.error().describe();

    // Direction 1: the direct writer publishes first. The daemon
    // must serve the pre-published record (a store hit), not a
    // fresh simulation — first-wins seen from the reader side.
    auto cell = makeCell(fw::SpecInt::Go099, 9001);
    const uint64_t fp = fb::cellFingerprint(cell);
    auto doctored = makeRecord(fp, frc::cellCost(cell), 31);
    ASSERT_FALSE(
        frc::publishResults(store, {doctored}, UINT64_MAX));
    auto served = client.value().submit({cell});
    ASSERT_TRUE(served.ok()) << served.error().describe();
    ASSERT_TRUE(served.value()[0].has_value());
    EXPECT_TRUE(served.value()[0]->identical(doctored.stats));

    // Direction 2: the daemon publishes first; a direct writer
    // racing in afterwards must not displace the daemon's record.
    auto cell2 = makeCell(fw::SpecInt::Gcc126, 9001);
    const uint64_t fp2 = fb::cellFingerprint(cell2);
    auto served2 = client.value().submit({cell2});
    ASSERT_TRUE(served2.ok()) << served2.error().describe();
    ASSERT_TRUE(served2.value()[0].has_value());
    auto late = makeRecord(fp2, frc::cellCost(cell2), 47);
    ASSERT_FALSE(frc::publishResults(store, {late}, UINT64_MAX));

    auto contents = frc::readResultFile(store);
    ASSERT_TRUE(contents.ok()) << contents.error().describe();
    bool found = false;
    for (const auto &record : contents.value().records) {
        if (record.fingerprint != fp2)
            continue;
        found = true;
        EXPECT_TRUE(record.stats.identical(*served2.value()[0]));
        EXPECT_FALSE(record.stats.identical(late.stats));
    }
    EXPECT_TRUE(found);
}
