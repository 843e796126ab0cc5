/**
 * @file
 * Tests for the parallel sweep engine: FVC_JOBS parsing, the thread
 * pool, SweepRunner's deterministic result ordering, the shared
 * TraceRepository's memoization under concurrent lookup, and
 * single-pass groups — whole or split over one shared trace —
 * replayed on concurrent pool workers.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>

#include "cache/cache_system.hh"
#include "fabric/spill.hh"
#include "harness/parallel.hh"
#include "harness/report.hh"
#include "harness/runner.hh"
#include "harness/trace_repo.hh"
#include "sim/multi_config.hh"
#include "util/error.hh"
#include "util/strings.hh"

namespace fh = fvc::harness;
namespace fw = fvc::workload;
namespace fc = fvc::cache;
namespace co = fvc::core;

namespace {

/** Exact per-config miss counts: bit-identical or bust. */
struct MissCounts
{
    uint64_t read_misses = 0;
    uint64_t write_misses = 0;
    uint64_t writebacks = 0;
    uint64_t fvc_read_hits = 0;
    uint64_t fvc_write_hits = 0;

    bool operator==(const MissCounts &) const = default;
};

/** A fig12-shaped cell: bare DMC plus DMC+FVC on a shared trace. */
MissCounts
simulateCell(const fw::BenchmarkProfile &profile, uint32_t kb,
             uint32_t line, uint64_t accesses)
{
    auto trace = fh::sharedTrace(profile, accesses, 4242);
    fc::CacheConfig dmc;
    dmc.size_bytes = kb * 1024;
    dmc.line_bytes = line;

    fc::DmcSystem base(dmc);
    fh::replayFast(*trace, base);

    co::FvcConfig fvc;
    fvc.entries = 128;
    fvc.line_bytes = line;
    fvc.code_bits = 3;
    auto sys = fh::runDmcFvc(*trace, dmc, fvc);

    MissCounts counts;
    counts.read_misses = base.stats().read_misses +
                         sys->stats().read_misses;
    counts.write_misses = base.stats().write_misses +
                          sys->stats().write_misses;
    counts.writebacks = base.stats().writebacks +
                        sys->stats().writebacks;
    counts.fvc_read_hits = sys->fvcStats().fvc_read_hits;
    counts.fvc_write_hits = sys->fvcStats().fvc_write_hits;
    return counts;
}

std::vector<MissCounts>
runGrid(fh::ThreadPool &pool)
{
    fh::SweepRunner<MissCounts> sweep(pool);
    for (auto bench :
         {fw::SpecInt::Go099, fw::SpecInt::M88ksim124}) {
        auto profile = fw::specIntProfile(bench);
        for (uint32_t kb : {4u, 8u}) {
            for (uint32_t line : {16u, 32u}) {
                sweep.submit([profile, kb, line] {
                    return simulateCell(profile, kb, line, 20000);
                });
            }
        }
    }
    return sweep.run();
}

} // namespace

TEST(JobCountTest, RespectsEnvironment)
{
    setenv("FVC_JOBS", "3", 1);
    EXPECT_EQ(fh::jobCount(), 3u);
    setenv("FVC_JOBS", "1", 1);
    EXPECT_EQ(fh::jobCount(), 1u);
    unsetenv("FVC_JOBS");
    EXPECT_GE(fh::jobCount(), 1u);
}

TEST(JobCountTest, RejectsGarbage)
{
    unsigned fallback = fh::jobCount();
    for (const char *bad : {"0", "-2", "abc", "4x", ""}) {
        setenv("FVC_JOBS", bad, 1);
        EXPECT_EQ(fh::jobCount(), fallback) << "FVC_JOBS=" << bad;
    }
    unsetenv("FVC_JOBS");
}

TEST(ThreadPoolTest, DrainsAllTasks)
{
    fh::ThreadPool pool(4);
    EXPECT_EQ(pool.threadCount(), 4u);
    std::atomic<int> count{0};
    for (int i = 0; i < 100; ++i)
        pool.submit([&count] { ++count; });
    pool.waitIdle();
    EXPECT_EQ(count.load(), 100);
}

TEST(SweepRunnerTest, ResultsInSubmissionOrder)
{
    fh::ThreadPool pool(4);
    fh::SweepRunner<size_t> sweep(pool);
    for (size_t i = 0; i < 64; ++i) {
        sweep.submit([i] {
            // Vary runtimes so completion order scrambles.
            std::this_thread::sleep_for(
                std::chrono::microseconds((64 - i) * 10));
            return i;
        });
    }
    auto results = sweep.run();
    ASSERT_EQ(results.size(), 64u);
    for (size_t i = 0; i < results.size(); ++i)
        EXPECT_EQ(results[i], i);
}

TEST(SweepRunnerTest, ReusableAfterRun)
{
    fh::ThreadPool pool(2);
    fh::SweepRunner<int> sweep(pool);
    sweep.submit([] { return 1; });
    EXPECT_EQ(sweep.run(), std::vector<int>{1});
    EXPECT_EQ(sweep.pending(), 0u);
    sweep.submit([] { return 2; });
    sweep.submit([] { return 3; });
    EXPECT_EQ(sweep.run(), (std::vector<int>{2, 3}));
}

TEST(SweepRunnerTest, RunReportsAllFailuresIndexed)
{
    fh::ThreadPool pool(4);
    fh::SweepRunner<int> sweep(pool);
    sweep.submit([] { return 0; });
    sweep.submit([]() -> int {
        throw std::runtime_error("job 1 failed");
    });
    sweep.submit([]() -> int {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        throw std::runtime_error("job 2 failed");
    });
    try {
        sweep.run();
        FAIL() << "expected a SweepError";
    } catch (const fh::SweepError &e) {
        // Every failure is in the summary, by submission index,
        // not just the first one.
        ASSERT_EQ(e.failures().size(), 2u);
        EXPECT_EQ(e.failures()[0].index, 1u);
        EXPECT_EQ(e.failures()[1].index, 2u);
        std::string what = e.what();
        EXPECT_NE(what.find("2/3"), std::string::npos) << what;
        EXPECT_NE(what.find("job 1 failed"), std::string::npos);
        EXPECT_NE(what.find("job 2 failed"), std::string::npos);
    }
}

TEST(SweepRunnerTest, RunCheckedReturnsPartialResults)
{
    fh::ThreadPool pool(4);
    fh::SweepRunner<int> sweep(pool);
    for (int i = 0; i < 4; ++i) {
        sweep.submit([i]() -> int {
            if (i == 2)
                throw std::runtime_error("cell exploded");
            return i * 10;
        });
    }
    auto outcome = sweep.runChecked();
    EXPECT_FALSE(outcome.ok());
    ASSERT_EQ(outcome.results.size(), 4u);
    EXPECT_EQ(outcome.results[0], 0);
    EXPECT_EQ(outcome.results[1], 10);
    EXPECT_FALSE(outcome.results[2].has_value());
    EXPECT_EQ(outcome.results[3], 30);
    ASSERT_EQ(outcome.failures.size(), 1u);
    EXPECT_EQ(outcome.failures[0].index, 2u);
    // A non-transient failure never retries.
    EXPECT_EQ(outcome.failures[0].attempts, 1u);
    EXPECT_FALSE(outcome.failures[0].timed_out);
    EXPECT_NE(outcome.failures[0].message.find("cell exploded"),
              std::string::npos);
}

TEST(SweepRunnerTest, TransientErrorsRetryUntilSuccess)
{
    setenv("FVC_RETRIES", "2", 1);
    fh::ThreadPool pool(2);
    fh::SweepRunner<int> sweep(pool);
    auto flaky = std::make_shared<std::atomic<int>>(0);
    sweep.submit([flaky]() -> int {
        if (flaky->fetch_add(1) < 2)
            throw fvc::util::TransientError("spurious failure");
        return 99;
    });
    auto outcome = sweep.runChecked();
    EXPECT_TRUE(outcome.ok());
    ASSERT_TRUE(outcome.results[0].has_value());
    EXPECT_EQ(*outcome.results[0], 99);
    EXPECT_EQ(flaky->load(), 3);
    unsetenv("FVC_RETRIES");
}

TEST(SweepRunnerTest, TransientErrorsExhaustRetries)
{
    setenv("FVC_RETRIES", "2", 1);
    fh::ThreadPool pool(2);
    fh::SweepRunner<int> sweep(pool);
    auto calls = std::make_shared<std::atomic<int>>(0);
    sweep.submit([calls]() -> int {
        calls->fetch_add(1);
        throw fvc::util::TransientError("always transient");
    });
    auto outcome = sweep.runChecked();
    ASSERT_EQ(outcome.failures.size(), 1u);
    // 1 initial attempt + FVC_RETRIES extra ones.
    EXPECT_EQ(outcome.failures[0].attempts, 3u);
    EXPECT_EQ(calls->load(), 3);
    unsetenv("FVC_RETRIES");
}

TEST(SweepRunnerTest, WatchdogDiscardsTimedOutResults)
{
    setenv("FVC_JOB_TIMEOUT_MS", "50", 1);
    fh::ThreadPool pool(2);
    fh::SweepRunner<int> sweep(pool);
    sweep.submit([] {
        std::this_thread::sleep_for(std::chrono::milliseconds(250));
        return 1;
    });
    sweep.submit([] { return 2; });
    auto outcome = sweep.runChecked();
    unsetenv("FVC_JOB_TIMEOUT_MS");
    ASSERT_EQ(outcome.failures.size(), 1u);
    EXPECT_EQ(outcome.failures[0].index, 0u);
    EXPECT_TRUE(outcome.failures[0].timed_out);
    EXPECT_FALSE(outcome.results[0].has_value());
    ASSERT_TRUE(outcome.results[1].has_value());
    EXPECT_EQ(*outcome.results[1], 2);
}

TEST(SweepRunnerTest, WatchdogReportsButCannotReclaim)
{
    // The documented honesty contract of the thread backend: an
    // expired job is *reported* as timed out and its result is
    // discarded, but the thread cannot be killed — the job runs to
    // completion and its side effects still happen. (The process
    // backend in src/fabric/ is the one that actually kills and
    // re-queues; see fabric_test.cc.)
    setenv("FVC_JOB_TIMEOUT_MS", "50", 1);
    auto side_effect = std::make_shared<std::atomic<bool>>(false);
    fh::ThreadPool pool(2);
    fh::SweepRunner<int> sweep(pool);
    sweep.submit([side_effect] {
        std::this_thread::sleep_for(std::chrono::milliseconds(250));
        // Well past the deadline by now, yet still executing.
        side_effect->store(true);
        return 1;
    });
    auto outcome = sweep.runChecked();
    unsetenv("FVC_JOB_TIMEOUT_MS");
    ASSERT_EQ(outcome.failures.size(), 1u);
    EXPECT_TRUE(outcome.failures[0].timed_out);
    EXPECT_FALSE(outcome.results[0].has_value());
    // runChecked() returned only after the job finished: the
    // watchdog never reclaimed the thread, so the side effect of
    // the "killed" job is visible.
    EXPECT_TRUE(side_effect->load());
}

TEST(SweepRunnerTest, FaultSpecFailsTheNamedGlobalJob)
{
    // Sample the process-wide submission counter (consumes one
    // index), then aim the injector two jobs ahead.
    size_t current = fh::detail::nextGlobalSweepIndex();
    std::string spec =
        "sweep_job=" + std::to_string(current + 2);
    setenv("FVC_FAULT_SPEC", spec.c_str(), 1);
    fh::ThreadPool pool(2);
    fh::SweepRunner<int> sweep(pool);
    for (int i = 0; i < 4; ++i)
        sweep.submit([i] { return i; });
    auto outcome = sweep.runChecked();
    unsetenv("FVC_FAULT_SPEC");
    ASSERT_EQ(outcome.failures.size(), 1u);
    EXPECT_EQ(outcome.failures[0].index, 1u);
    EXPECT_NE(outcome.failures[0].message.find("fault injector"),
              std::string::npos);
    EXPECT_FALSE(outcome.results[1].has_value());
    EXPECT_EQ(outcome.results[0], 0);
    EXPECT_EQ(outcome.results[2], 2);
    EXPECT_EQ(outcome.results[3], 3);
}

TEST(SweepRunnerTest, SerialAndParallelBitIdentical)
{
    // The acceptance gate of the sweep engine: a fig12-shaped grid
    // must give bit-identical miss counts with 1 worker (inline
    // execution) and N workers.
    fh::ThreadPool serial(1);
    fh::ThreadPool wide(4);
    auto serial_counts = runGrid(serial);
    auto wide_counts = runGrid(wide);
    ASSERT_EQ(serial_counts.size(), wide_counts.size());
    for (size_t i = 0; i < serial_counts.size(); ++i)
        EXPECT_EQ(serial_counts[i], wide_counts[i]) << "cell " << i;
}

// Grouped single-pass jobs must render identical tables no matter
// how many pool workers execute them (FVC_JOBS 1 vs 8 in the bench
// binaries maps to the pool width here). At width 8 the three
// groups replay concurrently, so the TSan build also checks that
// concurrent MultiConfigSimulator::run() calls share no unguarded
// state.
TEST(SinglePass, GroupedSweepIdenticalAcrossPoolWidths)
{
    const std::vector<fw::SpecInt> benches = {
        fw::SpecInt::Go099, fw::SpecInt::Li130, fw::SpecInt::Perl134};
    constexpr size_t kCellsPerGroup = 4;

    auto run_grouped = [&](unsigned threads) {
        fh::ThreadPool pool(threads);
        fh::SweepRunner<std::vector<double>> sweep(pool);
        for (auto bench : benches) {
            auto profile = fw::specIntProfile(bench);
            sweep.submit([profile] {
                auto trace = fh::sharedTrace(profile, 20000, 31);
                fvc::sim::MultiConfigSimulator engine(
                    trace->columns, trace->initial_image,
                    trace->frequent_values);
                fc::CacheConfig dmc;
                dmc.size_bytes = 8 * 1024;
                dmc.line_bytes = 32;
                engine.addDmc(dmc);
                for (unsigned bits : {1u, 2u, 3u}) {
                    co::FvcConfig fvc;
                    fvc.entries = 256;
                    fvc.line_bytes = 32;
                    fvc.code_bits = bits;
                    engine.addDmcFvc(dmc, fvc);
                }
                engine.run();
                std::vector<double> out;
                for (size_t c = 0; c < engine.cellCount(); ++c)
                    out.push_back(engine.missRatePercent(c));
                return out;
            });
        }
        // Flatten per-group results to per-cell strings; a failed
        // group renders all of its cells as FAILED.
        std::vector<std::string> rendered;
        for (const auto &group :
             fh::runDegraded(sweep, "pool-width parity")) {
            EXPECT_TRUE(group.has_value());
            if (!group) {
                rendered.insert(rendered.end(), kCellsPerGroup,
                                fh::failedCell());
                continue;
            }
            EXPECT_EQ(group->size(), kCellsPerGroup);
            for (double rate : *group)
                rendered.push_back(fvc::util::fixedStr(rate, 3));
        }
        return rendered;
    };

    EXPECT_EQ(run_grouped(1), run_grouped(8));
}

// The dispatch plan splits a large lane group into units that
// replay one shared PreparedTrace at the same time. Two simulators,
// each on half of an 8-cell grid, must match one simulator over the
// whole grid; the TSan build checks that the concurrent run() calls
// share no unguarded state.
TEST(SinglePass, SplitGridOnSharedTraceMatchesWholeGrid)
{
    constexpr size_t kCells = 8;
    const auto trace = fh::sharedTrace(
        fw::specIntProfile(fw::SpecInt::Gcc126), 20000, 47);

    // Cells 0-2 are bare DMC, the rest DMC+FVC over three code
    // widths, so one half mixes both kinds and the other is FVC-only.
    auto run_cells = [&trace](size_t begin, size_t end) {
        fvc::sim::MultiConfigSimulator engine(trace->columns,
                                              trace->initial_image,
                                              trace->frequent_values);
        for (size_t c = begin; c < end; ++c) {
            fc::CacheConfig dmc;
            dmc.size_bytes = (c % 2 ? 8 : 4) * 1024;
            dmc.line_bytes = c % 3 ? 32 : 16;
            if (c < 3) {
                engine.addDmc(dmc);
                continue;
            }
            co::FvcConfig fvc;
            fvc.entries = 256;
            fvc.line_bytes = dmc.line_bytes;
            fvc.code_bits = static_cast<unsigned>(1 + c % 3);
            engine.addDmcFvc(dmc, fvc);
        }
        engine.run();
        std::vector<fvc::fabric::CellStats> out(end - begin);
        for (size_t c = 0; c < out.size(); ++c) {
            out[c].cache = engine.stats(c);
            if (const auto *fvc_stats = engine.fvcStats(c))
                out[c].fvc = *fvc_stats;
        }
        return out;
    };

    fh::ThreadPool pool(4);
    fh::SweepRunner<std::vector<fvc::fabric::CellStats>> sweep(pool);
    sweep.submit([&] { return run_cells(0, kCells / 2); });
    sweep.submit([&] { return run_cells(kCells / 2, kCells); });
    const auto halves = sweep.run();
    const auto whole = run_cells(0, kCells);

    ASSERT_EQ(halves.size(), 2u);
    for (size_t c = 0; c < kCells; ++c) {
        const auto &half = halves[c / (kCells / 2)];
        ASSERT_EQ(half.size(), kCells / 2);
        EXPECT_TRUE(half[c % (kCells / 2)].identical(whole[c]))
            << "cell " << c;
    }
}

TEST(TraceRepositoryTest, MemoizesByKey)
{
    fh::TraceRepository repo;
    auto profile = fw::specIntProfile(fw::SpecInt::Li130);
    auto a = repo.get(profile, 5000, 11);
    auto b = repo.get(profile, 5000, 11);
    EXPECT_EQ(a.get(), b.get());
    EXPECT_EQ(repo.size(), 1u);

    auto c = repo.get(profile, 5000, 12);
    EXPECT_NE(a.get(), c.get());
    auto d = repo.get(profile, 6000, 11);
    EXPECT_NE(a.get(), d.get());
    EXPECT_EQ(repo.size(), 3u);

    repo.clear();
    EXPECT_EQ(repo.size(), 0u);
    // Outstanding pointers survive the clear; re-fetch regenerates.
    EXPECT_GE(a->columns.size(), 5000u);
    auto e = repo.get(profile, 5000, 11);
    EXPECT_NE(a.get(), e.get());
}

TEST(TraceRepositoryTest, PointerEqualUnderConcurrentLookup)
{
    fh::TraceRepository repo;
    auto profile = fw::specIntProfile(fw::SpecInt::Gcc126);
    constexpr int kThreads = 8;
    std::vector<fh::TraceRepository::TracePtr> seen(kThreads);
    {
        std::vector<std::jthread> threads;
        threads.reserve(kThreads);
        for (int t = 0; t < kThreads; ++t) {
            threads.emplace_back([&repo, &profile, &seen, t] {
                seen[t] = repo.get(profile, 10000, 33);
            });
        }
    }
    for (int t = 1; t < kThreads; ++t)
        EXPECT_EQ(seen[0].get(), seen[t].get()) << "thread " << t;
    EXPECT_EQ(repo.size(), 1u);
    EXPECT_EQ(seen[0]->name, "126.gcc");
}

TEST(TraceRepositoryTest, UsableFromPoolWorkers)
{
    // Sweep jobs fetch traces from inside pool workers; the first
    // caller generates while later callers of the same key block
    // only on that key.
    fh::ThreadPool pool(4);
    fh::TraceRepository repo;
    auto profile = fw::specIntProfile(fw::SpecInt::Perl134);
    fh::SweepRunner<const fvc::harness::PreparedTrace *> sweep(pool);
    for (int i = 0; i < 16; ++i) {
        sweep.submit([&repo, &profile] {
            return repo.get(profile, 8000, 55).get();
        });
    }
    auto ptrs = sweep.run();
    for (const auto *ptr : ptrs)
        EXPECT_EQ(ptr, ptrs[0]);
    EXPECT_EQ(repo.size(), 1u);
}
