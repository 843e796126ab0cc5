/**
 * @file
 * Library microbenchmarks (google-benchmark): throughput of the
 * hot paths — workload generation, cache simulation, FVC probe,
 * encoding, and profiling.
 */

#include <benchmark/benchmark.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>

#include "cache/cache_system.hh"
#include "core/dmc_fvc_system.hh"
#include "daemon/client.hh"
#include "fabric/fabric.hh"
#include "harness/runner.hh"
#include "harness/trace_repo.hh"
#include "profiling/value_table.hh"
#include "resultcache/repository.hh"
#include "sim/batch_encoder.hh"
#include "sim/kernel_stats.hh"
#include "sim/lane_kernel.hh"
#include "sim/lane_state.hh"
#include "sim/multi_config.hh"
#include "sim/simd_dispatch.hh"
#include "util/logging.hh"
#include "workload/fingerprint.hh"
#include "workload/generator.hh"

namespace {

using namespace fvc;

const harness::PreparedTrace &
gccTrace()
{
    static const harness::PreparedTrace trace = harness::prepareTrace(
        workload::specIntProfile(workload::SpecInt::Gcc126), 200000,
        81);
    return trace;
}

void
BM_WorkloadGeneration(benchmark::State &state)
{
    auto profile = workload::specIntProfile(workload::SpecInt::Gcc126);
    for (auto _ : state) {
        workload::SyntheticWorkload gen(profile, 50000, 3);
        trace::MemRecord rec;
        uint64_t n = 0;
        while (gen.next(rec))
            ++n;
        benchmark::DoNotOptimize(n);
    }
    state.SetItemsProcessed(state.iterations() * 50000);
}
BENCHMARK(BM_WorkloadGeneration)->Unit(benchmark::kMillisecond);

void
BM_DmcSimulation(benchmark::State &state)
{
    const auto &trace = gccTrace();
    for (auto _ : state) {
        cache::CacheConfig cfg;
        cfg.size_bytes = 16 * 1024;
        cfg.line_bytes = 32;
        cache::DmcSystem sys(cfg);
        harness::replay(trace, sys);
        benchmark::DoNotOptimize(sys.stats().misses());
    }
    state.SetItemsProcessed(state.iterations() *
                            trace.columns.size());
}
BENCHMARK(BM_DmcSimulation)->Unit(benchmark::kMillisecond);

void
BM_DmcFvcSimulation(benchmark::State &state)
{
    const auto &trace = gccTrace();
    for (auto _ : state) {
        cache::CacheConfig cfg;
        cfg.size_bytes = 16 * 1024;
        cfg.line_bytes = 32;
        core::FvcConfig fvc;
        fvc.entries = 512;
        fvc.line_bytes = 32;
        fvc.code_bits = 3;
        auto sys = harness::runDmcFvc(trace, cfg, fvc);
        benchmark::DoNotOptimize(sys->stats().misses());
    }
    state.SetItemsProcessed(state.iterations() *
                            trace.columns.size());
}
BENCHMARK(BM_DmcFvcSimulation)->Unit(benchmark::kMillisecond);

void
BM_FvcProbe(benchmark::State &state)
{
    core::FvcConfig cfg;
    cfg.entries = 512;
    cfg.line_bytes = 32;
    cfg.code_bits = 3;
    core::FrequentValueCache fvc(
        cfg, core::FrequentValueEncoding(
                 {0, 0xffffffffu, 1, 2, 4, 8, 10}, 3));
    std::vector<trace::Word> line = {0, 1, 2, 4, 8, 10, 0, 1};
    for (uint32_t i = 0; i < 512; ++i)
        fvc.insertLine(i * 32, line, false);
    uint32_t addr = 0;
    for (auto _ : state) {
        auto v = fvc.readWord(addr);
        benchmark::DoNotOptimize(v);
        addr = (addr + 36) % (512 * 32);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FvcProbe);

void
BM_Encoding(benchmark::State &state)
{
    core::FrequentValueEncoding enc(
        {0, 0xffffffffu, 1, 2, 4, 8, 10}, 3);
    uint32_t v = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(enc.encode(v));
        v = v * 1664525 + 1013904223;
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Encoding);

// The grid the two sweep-engine benchmarks replay: three DMC sizes,
// each bare and with a 512-entry FVC at 1/2/3 code bits (12 cells).
// Shaped like one benchmark's share of the fig12 grid.
struct GridCell
{
    uint32_t dmc_kb;
    unsigned code_bits; // 0 = bare DMC
};

std::vector<GridCell>
sweepGrid()
{
    std::vector<GridCell> grid;
    for (uint32_t kb : {8u, 16u, 32u}) {
        grid.push_back({kb, 0});
        for (unsigned bits : {1u, 2u, 3u})
            grid.push_back({kb, bits});
    }
    return grid;
}

void
BM_GridSweepPerCell(benchmark::State &state)
{
    const auto &trace = gccTrace();
    const auto grid = sweepGrid();
    for (auto _ : state) {
        double sum = 0.0;
        for (const auto &cell : grid) {
            cache::CacheConfig dmc;
            dmc.size_bytes = cell.dmc_kb * 1024;
            dmc.line_bytes = 32;
            if (cell.code_bits == 0) {
                sum += harness::dmcMissRate(trace, dmc);
            } else {
                core::FvcConfig fvc;
                fvc.entries = 512;
                fvc.line_bytes = 32;
                fvc.code_bits = cell.code_bits;
                auto sys = harness::runDmcFvc(trace, dmc, fvc);
                sum += sys->stats().missRatePercent();
            }
        }
        benchmark::DoNotOptimize(sum);
    }
    state.SetItemsProcessed(state.iterations() *
                            trace.columns.size() * grid.size());
}
BENCHMARK(BM_GridSweepPerCell)->Unit(benchmark::kMillisecond);

/**
 * When FVC_KERNEL_STATS=1, attach the lane kernel's per-phase cycle
 * and record counters to @p state so they land in the JSON next to
 * the benchmark's wall time. kAvgIterations divides by the iteration
 * count, so each counter reads as "per run of the workload" and
 * compare_bench.py can attribute a regression to the phase that
 * moved. Call resetLaneKernelStats() before the timing loop.
 */
void
attachKernelPhaseCounters(benchmark::State &state)
{
    if (!sim::laneKernelStatsEnabled())
        return;
    const sim::LaneKernelStats &s = sim::laneKernelStats();
    using benchmark::Counter;
    const auto avg = Counter::kAvgIterations;
    state.counters["fvc_hit_cycles"] = Counter(
        static_cast<double>(s.hit_cycles.load()), avg);
    state.counters["fvc_drain_cycles"] = Counter(
        static_cast<double>(s.drain_cycles.load()), avg);
    state.counters["fvc_encode_cycles"] = Counter(
        static_cast<double>(s.encode_cycles.load()), avg);
    state.counters["fvc_hit_records"] = Counter(
        static_cast<double>(s.hit_records.load()), avg);
    state.counters["fvc_drain_records"] = Counter(
        static_cast<double>(s.drain_records.load()), avg);
    state.counters["fvc_blocks"] = Counter(
        static_cast<double>(s.blocks.load()), avg);
}

/** The gate grid through the single-pass engine with the replay
 * kernel pinned to @p kernel (Auto = FVC_SIMD dispatch). */
void
runSweepGrid(benchmark::State &state, sim::ReplayKernel kernel)
{
    const auto &trace = gccTrace();
    const auto grid = sweepGrid();
    sim::resetLaneKernelStats();
    for (auto _ : state) {
        sim::MultiConfigSimulator engine(trace.columns,
                                         trace.initial_image,
                                         trace.frequent_values);
        engine.forceKernel(kernel);
        for (const auto &cell : grid) {
            cache::CacheConfig dmc;
            dmc.size_bytes = cell.dmc_kb * 1024;
            dmc.line_bytes = 32;
            if (cell.code_bits == 0) {
                engine.addDmc(dmc);
            } else {
                core::FvcConfig fvc;
                fvc.entries = 512;
                fvc.line_bytes = 32;
                fvc.code_bits = cell.code_bits;
                engine.addDmcFvc(dmc, fvc);
            }
        }
        engine.run();
        double sum = 0.0;
        for (size_t c = 0; c < engine.cellCount(); ++c)
            sum += engine.missRatePercent(c);
        benchmark::DoNotOptimize(sum);
    }
    state.SetItemsProcessed(state.iterations() *
                            trace.columns.size() * grid.size());
    attachKernelPhaseCounters(state);
}

void
BM_GridSweepSinglePass(benchmark::State &state)
{
    runSweepGrid(state, sim::ReplayKernel::Auto);
}
BENCHMARK(BM_GridSweepSinglePass)->Unit(benchmark::kMillisecond);

// The same grid pinned to the lane kernel's scalar ISA level (what
// portable builds and FVC_SIMD=off run): the denominator of the
// SIMD speedup gate (check_simd_speedup.py asserts
// BM_GridSweepSinglePass beats this by >= 1.2x in Release).
void
BM_GridSweepLaneScalar(benchmark::State &state)
{
    runSweepGrid(state, sim::ReplayKernel::LaneScalar);
}
BENCHMARK(BM_GridSweepLaneScalar)->Unit(benchmark::kMillisecond);

// --- Lane-kernel micro-ops ------------------------------------
//
// These isolate the two vertical hot ops of the lane kernel at the
// best ISA this machine dispatches: the N-way tag compare over a
// hitting block (BM_LaneTagCompare) and the DMC-miss -> FVC probe ->
// frequent-hit path (BM_LaneFvcProbe).

sim::LaneBlockFn
bestLaneKernel()
{
    switch (sim::bestLaneIsa()) {
      case sim::LaneIsa::Avx512:
        return sim::runLaneBlockAvx512;
      case sim::LaneIsa::Avx2:
        return sim::runLaneBlockAvx2;
      default:
        return sim::runLaneBlockScalar;
    }
}

void
BM_LaneTagCompare(benchmark::State &state)
{
    // Eight direct-mapped 16KB lanes; a warmed block of 64 distinct
    // lines, so every access is a pure index/tag-compare hit.
    sim::LaneGroupSet lanes;
    cache::CacheConfig cfg;
    cfg.size_bytes = 16 * 1024;
    cfg.line_bytes = 32;
    constexpr size_t kLanes = 8;
    for (size_t cell = 0; cell < kLanes; ++cell)
        lanes.addDmcLane(cell, cfg);
    lanes.finalize();

    alignas(64) trace::Addr addrs[sim::kLaneBlockRecords];
    alignas(64) trace::Word values[sim::kLaneBlockRecords] = {};
    for (size_t i = 0; i < sim::kLaneBlockRecords; ++i)
        addrs[i] = static_cast<trace::Addr>(i * 32);

    sim::BlockCtx ctx;
    ctx.addrs = addrs;
    ctx.values = values;
    ctx.n = sim::kLaneBlockRecords;
    ctx.access_mask = ~uint64_t{0};

    sim::LaneBlockFn fn = bestLaneKernel();
    sim::LaneGroup &g = lanes.groups().front();
    fn(g, ctx); // warm: fill all 64 lines in every lane
    for (auto _ : state) {
        fn(g, ctx);
        benchmark::DoNotOptimize(g.dmc_stamps.data());
    }
    state.SetItemsProcessed(state.iterations() *
                            sim::kLaneBlockRecords * kLanes);
}
BENCHMARK(BM_LaneTagCompare);

void
BM_LaneFvcProbe(benchmark::State &state)
{
    // Eight DMC+FVC lanes in the ping-pong steady state: the DMC
    // set holds the conflicting line, the FVC holds the accessed
    // one with frequent content (a zero image and an encoding whose
    // value set contains 0), so every record runs DMC-miss -> FVC
    // probe -> frequent-word hit.
    sim::LaneGroupSet lanes;
    cache::CacheConfig dmc;
    dmc.size_bytes = 8 * 1024;
    dmc.line_bytes = 32;
    core::FvcConfig fvc;
    fvc.entries = 256;
    fvc.line_bytes = 32;
    fvc.code_bits = 3;
    core::DmcFvcPolicy policy;
    constexpr size_t kLanes = 8;
    for (size_t cell = 0; cell < kLanes; ++cell)
        lanes.addFvcLane(cell, dmc, fvc, policy, 0);
    lanes.finalize();

    core::FrequentValueEncoding enc(
        {0, 0xffffffffu, 1, 2, 4, 8, 10}, 3);
    sim::BatchEncoder encoder(enc);
    const sim::BatchEncoder *encoders[1] = {&encoder};
    memmodel::FunctionalMemory image; // all-zero: every word frequent
    sim::FreqWordMap freq_map;
    freq_map.init(encoders, 1);

    alignas(64) trace::Addr addrs[sim::kLaneBlockRecords];
    alignas(64) trace::Word values[sim::kLaneBlockRecords] = {};
    uint64_t freq =
        encoder.frequentMask(values, sim::kLaneBlockRecords);

    sim::BlockCtx ctx;
    ctx.addrs = addrs;
    ctx.values = values;
    ctx.n = sim::kLaneBlockRecords;
    ctx.access_mask = ~uint64_t{0};
    ctx.freq_masks = &freq;
    ctx.image = &image;
    ctx.freq_map = &freq_map;

    sim::LaneBlockFn fn = bestLaneKernel();
    sim::LaneGroup &g = lanes.groups().front();
    // Warm: fill lines i, then conflict-fill i + 8KB so line i is
    // evicted into the FVC and the DMC keeps the conflicting tag.
    for (size_t i = 0; i < sim::kLaneBlockRecords; ++i)
        addrs[i] = static_cast<trace::Addr>(i * 32);
    fn(g, ctx);
    for (size_t i = 0; i < sim::kLaneBlockRecords; ++i)
        addrs[i] = static_cast<trace::Addr>(i * 32 + 8 * 1024);
    fn(g, ctx);
    for (size_t i = 0; i < sim::kLaneBlockRecords; ++i)
        addrs[i] = static_cast<trace::Addr>(i * 32);

    for (auto _ : state) {
        fn(g, ctx);
        benchmark::DoNotOptimize(g.fvc.data());
    }
    state.SetItemsProcessed(state.iterations() *
                            sim::kLaneBlockRecords * kLanes);
}
BENCHMARK(BM_LaneFvcProbe);

void
BM_LaneMissDrain(benchmark::State &state)
{
    // Worst case for the miss engines: every record of every block
    // takes the full miss path — inline (with prediction repair)
    // on the vector direct-mapped walk, queued and drained on the
    // scalar one. Eight DMC+FVC lanes ping-pong between two
    // conflicting working sets (lines i and i + 8KB share a set),
    // and the encoding's value set excludes 0, so the all-zero
    // image makes every victim line barren — the FVC stays empty
    // and each miss runs victim read + frequent-mask + skipped
    // install, the heaviest always-taken slice of the miss path.
    sim::LaneGroupSet lanes;
    cache::CacheConfig dmc;
    dmc.size_bytes = 8 * 1024;
    dmc.line_bytes = 32;
    core::FvcConfig fvc;
    fvc.entries = 256;
    fvc.line_bytes = 32;
    fvc.code_bits = 3;
    core::DmcFvcPolicy policy;
    constexpr size_t kLanes = 8;
    for (size_t cell = 0; cell < kLanes; ++cell)
        lanes.addFvcLane(cell, dmc, fvc, policy, 0);
    lanes.finalize();

    core::FrequentValueEncoding enc({1, 2, 3, 4, 5, 6, 7}, 3);
    sim::BatchEncoder encoder(enc);
    const sim::BatchEncoder *encoders[1] = {&encoder};
    memmodel::FunctionalMemory image; // all-zero: no word frequent
    sim::FreqWordMap freq_map;
    freq_map.init(encoders, 1);

    alignas(64) trace::Addr addrs_a[sim::kLaneBlockRecords];
    alignas(64) trace::Addr addrs_b[sim::kLaneBlockRecords];
    alignas(64) trace::Word values[sim::kLaneBlockRecords] = {};
    for (size_t i = 0; i < sim::kLaneBlockRecords; ++i) {
        addrs_a[i] = static_cast<trace::Addr>(i * 32);
        addrs_b[i] = static_cast<trace::Addr>(i * 32 + 8 * 1024);
    }
    uint64_t freq =
        encoder.frequentMask(values, sim::kLaneBlockRecords);

    sim::BlockCtx ctx_a;
    ctx_a.addrs = addrs_a;
    ctx_a.values = values;
    ctx_a.n = sim::kLaneBlockRecords;
    ctx_a.access_mask = ~uint64_t{0};
    ctx_a.freq_masks = &freq;
    ctx_a.image = &image;
    ctx_a.freq_map = &freq_map;
    sim::BlockCtx ctx_b = ctx_a;
    ctx_b.addrs = addrs_b;

    sim::LaneBlockFn fn = bestLaneKernel();
    sim::LaneGroup &g = lanes.groups().front();
    fn(g, ctx_a); // warm: cold fills, so the loop sees only
    fn(g, ctx_b); // conflict misses in the steady state
    sim::resetLaneKernelStats();
    for (auto _ : state) {
        fn(g, ctx_a); // evicts the B lines, installs A
        fn(g, ctx_b); // evicts the A lines, installs B
        benchmark::DoNotOptimize(g.dmc_stamps.data());
    }
    state.SetItemsProcessed(state.iterations() *
                            sim::kLaneBlockRecords * 2 * kLanes);
    attachKernelPhaseCounters(state);
}
BENCHMARK(BM_LaneMissDrain);

void
BM_BatchEncoding(benchmark::State &state)
{
    const auto &trace = gccTrace();
    core::FrequentValueEncoding enc(trace.frequent_values, 3);
    sim::BatchEncoder encoder(enc);
    const auto &chunk = trace.columns.chunks().front();
    std::vector<core::Code> codes(chunk.size());
    for (auto _ : state) {
        encoder.encode(chunk.value.data(), chunk.size(),
                       codes.data());
        benchmark::DoNotOptimize(codes.data());
    }
    state.SetItemsProcessed(state.iterations() * chunk.size());
}
BENCHMARK(BM_BatchEncoding);

void
BM_ValueCounting(benchmark::State &state)
{
    const auto &trace = gccTrace();
    for (auto _ : state) {
        profiling::ValueCounterTable table;
        trace.columns.forEachRecord(
            [&](const trace::MemRecord &rec) {
                if (rec.isAccess())
                    table.add(rec.value);
            });
        benchmark::DoNotOptimize(table.topK(10));
    }
    state.SetItemsProcessed(state.iterations() *
                            trace.columns.size());
}
BENCHMARK(BM_ValueCounting)->Unit(benchmark::kMillisecond);

// --- Persistent trace store -----------------------------------
//
// BM_TracePrepareCold is the baseline a warm store must beat: full
// synthetic generation of the gcc trace. BM_TraceLoad mmap()s a
// pre-written v3 store file of the *same* trace and rebuilds a
// zero-copy PreparedTrace (validating every CRC along the way).
// bench/check_store_speedup.py gates on load being >= 5x faster.

constexpr uint64_t kStoreBenchAccesses = 200000;
constexpr uint64_t kStoreBenchSeed = 81;

/** A v3 store file of gccTrace(), written once into a private temp
 * dir (independent of FVC_TRACE_DIR, so the benchmark measures the
 * store format, not the user's environment). */
const std::string &
gccStorePath()
{
    static const std::string path = [] {
        namespace fs = std::filesystem;
        const auto dir =
            fs::temp_directory_path() / "fvc-bench-store";
        std::error_code ec;
        fs::create_directories(dir, ec);
        harness::TraceKey key;
        key.profile = "gcc";
        key.profile_hash = workload::profileFingerprint(
            workload::specIntProfile(workload::SpecInt::Gcc126));
        key.accesses = kStoreBenchAccesses;
        key.seed = kStoreBenchSeed;
        key.top_k = 10;
        const std::string out =
            (dir / harness::storeFileName(key)).string();
        auto err = harness::saveTraceFile(out, gccTrace(), key);
        fvc_assert(!err, "writing bench store file: ",
                   err->describe());
        return out;
    }();
    return path;
}

void
BM_TracePrepareCold(benchmark::State &state)
{
    auto profile = workload::specIntProfile(workload::SpecInt::Gcc126);
    for (auto _ : state) {
        auto trace = harness::prepareTrace(
            profile, kStoreBenchAccesses, kStoreBenchSeed);
        benchmark::DoNotOptimize(trace.columns.size());
    }
    state.SetItemsProcessed(state.iterations() *
                            kStoreBenchAccesses);
}
BENCHMARK(BM_TracePrepareCold)->Unit(benchmark::kMillisecond);

void
BM_TraceLoad(benchmark::State &state)
{
    const std::string &path = gccStorePath();
    for (auto _ : state) {
        auto loaded = harness::loadTraceFile(path);
        fvc_assert(loaded.ok(), "bench store load failed: ",
                   loaded.error().describe());
        benchmark::DoNotOptimize(loaded.value().columns.size());
    }
    state.SetItemsProcessed(state.iterations() *
                            kStoreBenchAccesses);
}
BENCHMARK(BM_TraceLoad)->Unit(benchmark::kMillisecond);

// --- Host identification for the JSON context ------------------
//
// Timings are only comparable across runs on the same CPU at the
// same frequency policy, so the context records both, read from the
// host (run_bench.sh prints them back from the JSON).

std::string
benchCpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("model name", 0) != 0)
            continue;
        const auto colon = line.find(':');
        if (colon == std::string::npos)
            break;
        auto value = line.substr(colon + 1);
        value.erase(0, value.find_first_not_of(" \t"));
        if (!value.empty())
            return value;
    }
    return "unknown";
}

std::string
benchGovernor()
{
    std::ifstream in(
        "/sys/devices/system/cpu/cpu0/cpufreq/scaling_governor");
    std::string governor;
    if (in >> governor && !governor.empty())
        return governor;
    return "unknown";
}

// "on" when this run's sweep cells go through fvc_sweepd: either
// FVC_DAEMON=on, or the default auto mode with a daemon actually
// answering the socket right now (one quick probe, same as
// daemon::runCells would make).
std::string
benchDaemonState()
{
    const auto mode = fvc::daemon::daemonMode();
    if (mode == fvc::daemon::DaemonMode::Off)
        return "off";
    if (mode == fvc::daemon::DaemonMode::On)
        return "on";
    fvc::daemon::Client::Options probe;
    probe.retries = 1;
    return fvc::daemon::Client::connect(probe).ok() ? "on" : "off";
}

} // namespace

// Custom main so the JSON context records whether *our* code was
// optimized. The library-provided "library_build_type" field
// describes the distro's libbenchmark build, not this binary, so
// bench/run_bench.sh keys its refuse-to-record guard off
// fvc_build_type instead.
int
main(int argc, char **argv)
{
#if defined(NDEBUG) && defined(__OPTIMIZE__)
    benchmark::AddCustomContext("fvc_build_type", "release");
#else
    benchmark::AddCustomContext("fvc_build_type", "debug");
#endif
    // Whether a persistent trace store served this run: "disabled",
    // "cold", or "warm". A warm store turns trace generation into an
    // mmap, so comparing a warm run against a cold one would report
    // a phantom regression; compare_bench.py refuses the pair.
    benchmark::AddCustomContext("fvc_trace_store",
                                fvc::harness::traceStoreStateName());
    // Whether a persistent result cache can serve sweep cells:
    // "off", "cold", or "warm". A warm result cache skips the
    // replay engine for every known cell, so comparing a warm run
    // against a cold one would report a phantom speedup;
    // compare_bench.py refuses the pair.
    benchmark::AddCustomContext(
        "fvc_result_cache",
        fvc::resultcache::resultCacheStateName());
    // The ISA the lane kernel dispatches on this machine ("scalar"
    // when FVC_SIMD=off). Sweep timings move with the vector width,
    // so compare_bench.py refuses to diff runs recorded under
    // different ISAs.
    benchmark::AddCustomContext("fvc_simd_isa",
                                fvc::sim::simdKernelContextString());
    // How many fabric worker processes FVC_WORKERS requests, or
    // "serial" when unset (the in-process path ran). Forked sweeps
    // pay fork/lease/spill overhead the serial path never sees, so
    // compare_bench.py refuses to diff runs recorded under
    // different worker counts.
    auto fabric_workers = fvc::fabric::configuredWorkers();
    benchmark::AddCustomContext(
        "fvc_workers", fabric_workers
                           ? std::to_string(*fabric_workers)
                           : std::string("serial"));
    // Whether sweep cells are served by a running fvc_sweepd ("on")
    // or in-process ("off"). A daemon-served sweep pays socket
    // round-trips instead of simulation, so compare_bench.py
    // refuses to diff runs recorded under different serving modes.
    benchmark::AddCustomContext("fvc_daemon",
                                benchDaemonState());
    // Host identity: sweep timings only compare within one CPU
    // model, and a non-"performance" governor lets the clock drift
    // mid-run. compare_bench.py warns when the governors of the two
    // runs differ.
    benchmark::AddCustomContext("fvc_cpu_model", benchCpuModel());
    benchmark::AddCustomContext("fvc_cpu_governor", benchGovernor());
    // Whether the per-phase kernel counters were live this run.
    // Timing the phases costs a pair of rdtsc reads per block, so
    // stats runs are not comparable against non-stats runs.
    benchmark::AddCustomContext(
        "fvc_kernel_stats",
        fvc::sim::laneKernelStatsEnabled() ? "on" : "off");
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
