/**
 * @file
 * Trace-file tooling example: generate a workload trace, persist
 * it as a trace store file (.fvcs), then map it back from disk and
 * analyze it — demonstrating the trace store API and the online
 * (Space-Saving) frequent-value sketch one would use on traces too
 * large to profile exactly.
 */

#include <cstdio>
#include <cstdlib>
#include <string>

#include "harness/runner.hh"
#include "harness/trace_repo.hh"
#include "profiling/value_table.hh"
#include "trace/trace_stats.hh"
#include "trace/trace_store.hh"
#include "util/strings.hh"
#include "util/table.hh"
#include "workload/fingerprint.hh"

int
main(int argc, char **argv)
{
    using namespace fvc;

    uint64_t accesses = 200000;
    std::string path = "/tmp/fvc_example_trace.fvcs";
    if (argc > 1)
        accesses = std::strtoull(argv[1], nullptr, 10);
    if (argc > 2)
        path = argv[2];

    // 1. Generate a 130.li trace and write it to disk.
    auto profile = workload::specIntProfile(workload::SpecInt::Li130);
    harness::TraceKey key{profile.name,
                          workload::profileFingerprint(profile),
                          accesses, 99, 10};
    {
        auto trace = harness::prepareTrace(profile, key.accesses,
                                           key.seed, key.top_k);
        if (auto err = harness::saveTraceFile(path, trace, key)) {
            std::fprintf(stderr, "%s\n", err->describe().c_str());
            return 1;
        }
        std::printf("wrote %s (%s records)\n", path.c_str(),
                    util::withCommas(trace.columns.size()).c_str());
    }

    // 2. Map it back and analyze.
    auto loaded = harness::loadTraceFile(path);
    if (!loaded) {
        std::fprintf(stderr, "%s\n", loaded.error().describe().c_str());
        return 1;
    }
    const harness::PreparedTrace &stored = loaded.value();
    const trace::StoreHeader &header = stored.mapping->header();
    std::printf("header: workload=%s seed=%llu records=%s "
                "instructions=%s\n\n",
                header.name,
                static_cast<unsigned long long>(header.seed),
                util::withCommas(header.record_count).c_str(),
                util::withCommas(header.instruction_count).c_str());

    trace::TraceStats stats;
    profiling::ValueCounterTable exact;
    profiling::SpaceSavingSketch sketch(64);
    stored.columns.forEachRecord([&](const trace::MemRecord &rec) {
        stats.observe(rec);
        if (rec.isAccess()) {
            exact.add(rec.value);
            sketch.add(rec.value);
        }
    });

    util::Table summary({"metric", "value"});
    summary.alignRight(1);
    summary.addRow({"loads", util::withCommas(stats.loads())});
    summary.addRow({"stores", util::withCommas(stats.stores())});
    summary.addRow(
        {"allocs/frees", util::withCommas(stats.allocs()) + "/" +
                             util::withCommas(stats.frees())});
    summary.addRow({"unique words",
                    util::withCommas(stats.uniqueWords())});
    summary.addRow({"footprint",
                    util::sizeStr(stats.footprintBytes())});
    summary.addRow(
        {"accesses per 1000 instructions",
         util::fixedStr(stats.accessesPerKiloInstruction(), 1)});
    std::printf("%s\n", summary.render().c_str());

    // 3. Compare the exact top-10 with the bounded online sketch —
    //    the cheap profiling method Section 2 calls for.
    util::Table top({"rank", "exact value", "exact count",
                     "sketch value", "sketch est."});
    top.alignRight(0);
    top.alignRight(2);
    top.alignRight(4);
    auto exact_top = exact.topK(10);
    auto sketch_top = sketch.topK(10);
    for (size_t i = 0; i < 10; ++i) {
        top.addRow(
            {std::to_string(i + 1),
             i < exact_top.size() ? util::hex32(exact_top[i].value)
                                  : "-",
             i < exact_top.size()
                 ? util::withCommas(exact_top[i].count)
                 : "-",
             i < sketch_top.size()
                 ? util::hex32(sketch_top[i].value)
                 : "-",
             i < sketch_top.size()
                 ? util::withCommas(sketch_top[i].count)
                 : "-"});
    }
    std::printf("%s", top.render().c_str());
    std::printf("(a 64-counter Space-Saving sketch recovers the "
                "heavy hitters an FVC needs without unbounded "
                "memory)\n");

    std::remove(path.c_str());
    return 0;
}
