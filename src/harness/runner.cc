#include "harness/runner.hh"

#include <atomic>
#include <cstdlib>
#include <thread>

#include "harness/parallel.hh"
#include "profiling/value_table.hh"
#include "util/logging.hh"
#include "util/strings.hh"

namespace fvc::harness {

namespace {

/** The @p top_k most accessed values, most frequent first (ties by
 * ascending value). */
std::vector<trace::Word>
frequentValues(const profiling::ValueCounterTable &accessed,
               size_t top_k)
{
    std::vector<trace::Word> out;
    for (const auto &vc : accessed.topK(top_k))
        out.push_back(vc.value);
    return out;
}

/** Serial generation: the classic single-stream path. */
PreparedTrace
prepareTraceSerial(const workload::BenchmarkProfile &profile,
                   uint64_t accesses, uint64_t seed, size_t top_k)
{
    PreparedTrace out;
    out.name = profile.name;

    workload::SyntheticWorkload gen(profile, accesses, seed);
    profiling::ValueCounterTable accessed;

    trace::MemRecord rec;
    while (gen.next(rec)) {
        out.columns.append(rec);
        if (rec.isAccess())
            accessed.add(rec.value);
    }
    out.instructions = gen.currentIcount();
    out.frequent_values = frequentValues(accessed, top_k);
    out.initial_image = gen.initialImage();
    out.final_image = gen.memory();
    return out;
}

/** What one generation shard produces. */
struct ShardOutput
{
    std::vector<trace::MemRecord> records;
    memmodel::FunctionalMemory initial_image;
    memmodel::FunctionalMemory final_image;
    uint64_t instructions = 0;
};

} // namespace

uint32_t
genShards()
{
    if (const char *env = std::getenv("FVC_GEN_SHARDS")) {
        // Strict parse, like FVC_JOBS: "4x" is a user error.
        auto v = util::parseUint(env);
        if (v && *v >= 1 && *v <= workload::kMaxGenShards)
            return static_cast<uint32_t>(*v);
        fvc_warn("ignoring bad FVC_GEN_SHARDS value (want 1..",
                 workload::kMaxGenShards, "): ", env);
    }
    return 1;
}

PreparedTrace
prepareTrace(const workload::BenchmarkProfile &profile,
             uint64_t accesses, uint64_t seed, size_t top_k)
{
    return prepareTraceSharded(profile, accesses, seed, top_k,
                               genShards());
}

PreparedTrace
prepareTraceSharded(const workload::BenchmarkProfile &profile,
                    uint64_t accesses, uint64_t seed, size_t top_k,
                    uint32_t shards, unsigned jobs)
{
    fvc_assert(shards >= 1 && shards <= workload::kMaxGenShards,
               "shard count out of range: ", shards);
    if (shards == 1)
        return prepareTraceSerial(profile, accesses, seed, top_k);

    // Generate every shard into its own slot. Workers pull shard
    // indices off a shared counter; the output is slotted by index,
    // so the stitched trace is identical for any worker count.
    std::vector<ShardOutput> outputs(shards);
    std::atomic<uint32_t> next{0};
    auto work = [&]() {
        for (;;) {
            const uint32_t i =
                next.fetch_add(1, std::memory_order_relaxed);
            if (i >= shards)
                return;
            workload::SyntheticWorkload gen(
                profile, accesses, seed, {i, shards});
            ShardOutput &out = outputs[i];
            out.records.reserve(gen.targetAccesses());
            trace::MemRecord rec;
            while (gen.next(rec))
                out.records.push_back(rec);
            out.instructions = gen.currentIcount();
            out.initial_image = gen.initialImage();
            out.final_image = gen.memory();
        }
    };

    // Dedicated short-lived threads, NOT the shared ThreadPool:
    // trace preparation routinely runs *on* pool workers (sweep
    // jobs hitting the TraceRepository), and blocking a worker on
    // subtasks queued behind other blocked workers would deadlock.
    unsigned workers = jobs ? jobs : jobCount();
    if (workers > shards)
        workers = shards;
    if (workers <= 1) {
        work();
    } else {
        std::vector<std::thread> threads;
        threads.reserve(workers);
        for (unsigned t = 0; t < workers; ++t)
            threads.emplace_back(work);
        for (auto &thread : threads)
            thread.join();
    }

    // Stitch in shard order: records are rebased onto one global
    // instruction clock, images union page-disjoint address bands.
    PreparedTrace out;
    out.name = profile.name;
    profiling::ValueCounterTable accessed;
    uint64_t icount_base = 0;
    for (ShardOutput &shard : outputs) {
        for (trace::MemRecord rec : shard.records) {
            rec.icount += icount_base;
            out.columns.append(rec);
            if (rec.isAccess())
                accessed.add(rec.value);
        }
        icount_base += shard.instructions;
        out.initial_image.mergeDisjointFrom(shard.initial_image);
        out.final_image.mergeDisjointFrom(shard.final_image);
        shard.records.clear();
        shard.records.shrink_to_fit();
    }
    out.instructions = icount_base;
    out.frequent_values = frequentValues(accessed, top_k);
    return out;
}

void
installInitialImage(const PreparedTrace &trace,
                    memmodel::FunctionalMemory &image)
{
    trace.initial_image.forEachInteresting(
        [&](trace::Addr addr, trace::Word value) {
            image.write(addr, value);
        });
}

void
replay(const PreparedTrace &trace, cache::CacheSystem &system)
{
    installInitialImage(trace, system.memoryImage());
    trace.columns.forEachRecord([&system](
        const trace::MemRecord &rec) { system.consume(rec); });
    system.flush();
}

double
dmcMissRate(const PreparedTrace &trace,
            const cache::CacheConfig &config)
{
    cache::DmcSystem system(config);
    replayFast(trace, system);
    return system.stats().missRatePercent();
}

std::unique_ptr<core::DmcFvcSystem>
runDmcFvc(const PreparedTrace &trace,
          const cache::CacheConfig &dmc_config,
          const core::FvcConfig &fvc_config)
{
    core::FrequentValueEncoding encoding(trace.frequent_values,
                                         fvc_config.code_bits);
    auto system = std::make_unique<core::DmcFvcSystem>(
        dmc_config, fvc_config, std::move(encoding));
    replayFast(trace, *system);
    return system;
}

uint64_t
defaultTraceAccesses()
{
    if (const char *env = std::getenv("FVC_TRACE_ACCESSES")) {
        // Strict parse: trailing garbage ("100x") is a user error,
        // not a 100-access run.
        auto v = util::parseUint(env);
        if (v && *v > 0)
            return *v;
        fvc_warn("ignoring bad FVC_TRACE_ACCESSES value: ", env);
    }
    return 2000000;
}

} // namespace fvc::harness
