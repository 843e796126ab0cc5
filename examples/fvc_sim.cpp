/**
 * @file
 * fvc_sim: a command-line driver for the simulator — the front-end
 * a user points at a workload (built-in profile or trace file) and
 * a cache organization to get miss/traffic/energy numbers without
 * writing any C++.
 *
 * Usage:
 *   fvc_sim [options]
 *     --workload NAME   built-in profile (e.g. 126.gcc, 101.tomcatv)
 *     --trace FILE      binary trace file instead of a profile
 *     --accesses N      trace length for built-ins (default 1000000)
 *     --seed N          generator seed (default 1)
 *     --dmc-kb N        main cache size in Kb (default 16)
 *     --line N          line size in bytes (default 32)
 *     --assoc N         main cache associativity (default 1)
 *     --fvc N           FVC entries; 0 disables (default 512)
 *     --values N        frequent values: 1, 3, 7, ... (default 7)
 *     --victim N        use an N-entry victim cache instead of FVC
 *     --help            this text
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>

#include "cache/victim_cache.hh"
#include "core/dmc_fvc_system.hh"
#include "harness/runner.hh"
#include "harness/trace_repo.hh"
#include "timing/access_time.hh"
#include "timing/energy.hh"
#include "util/bitops.hh"
#include "util/strings.hh"
#include "workload/generator.hh"

namespace {

using namespace fvc;

struct Options
{
    std::string workload = "126.gcc";
    std::string trace_file;
    uint64_t accesses = 1000000;
    uint64_t seed = 1;
    uint32_t dmc_kb = 16;
    uint32_t line_bytes = 32;
    uint32_t assoc = 1;
    uint32_t fvc_entries = 512;
    uint32_t values = 7;
    uint32_t victim_entries = 0;
};

void
usage()
{
    std::printf(
        "fvc_sim — frequent value cache simulator\n"
        "  --workload NAME   built-in profile (default 126.gcc)\n"
        "  --trace FILE      trace store file (.fvcs) input\n"
        "  --accesses N      trace length (default 1000000)\n"
        "  --seed N          generator seed (default 1)\n"
        "  --dmc-kb N        main cache Kb (default 16)\n"
        "  --line N          line bytes (default 32)\n"
        "  --assoc N         associativity (default 1)\n"
        "  --fvc N           FVC entries, 0 = off (default 512)\n"
        "  --values N        frequent values (default 7)\n"
        "  --victim N        N-entry victim cache instead of FVC\n"
        "built-in workloads: 8 SPECint95 + 10 SPECfp95 names\n");
}

bool
parse(int argc, char **argv, Options &opt)
{
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto next = [&](uint64_t &out) {
            if (i + 1 >= argc)
                return false;
            out = std::strtoull(argv[++i], nullptr, 10);
            return true;
        };
        uint64_t v = 0;
        if (arg == "--help") {
            usage();
            std::exit(0);
        } else if (arg == "--workload" && i + 1 < argc) {
            opt.workload = argv[++i];
        } else if (arg == "--trace" && i + 1 < argc) {
            opt.trace_file = argv[++i];
        } else if (arg == "--accesses" && next(v)) {
            opt.accesses = v;
        } else if (arg == "--seed" && next(v)) {
            opt.seed = v;
        } else if (arg == "--dmc-kb" && next(v)) {
            opt.dmc_kb = static_cast<uint32_t>(v);
        } else if (arg == "--line" && next(v)) {
            opt.line_bytes = static_cast<uint32_t>(v);
        } else if (arg == "--assoc" && next(v)) {
            opt.assoc = static_cast<uint32_t>(v);
        } else if (arg == "--fvc" && next(v)) {
            opt.fvc_entries = static_cast<uint32_t>(v);
        } else if (arg == "--values" && next(v)) {
            opt.values = static_cast<uint32_t>(v);
        } else if (arg == "--victim" && next(v)) {
            opt.victim_entries = static_cast<uint32_t>(v);
        } else {
            std::fprintf(stderr, "unknown option: %s\n",
                         arg.c_str());
            return false;
        }
    }
    return true;
}

workload::BenchmarkProfile
profileByName(const std::string &name)
{
    for (auto bench : workload::allSpecInt()) {
        if (workload::specIntName(bench) == name)
            return workload::specIntProfile(bench);
    }
    for (const auto &fp : workload::allSpecFpNames()) {
        if (fp == name)
            return workload::specFpProfile(name);
    }
    std::fprintf(stderr, "unknown workload '%s'; try --help\n",
                 name.c_str());
    std::exit(1);
}

/** Load a trace store file, or print why it is unusable and exit. */
harness::PreparedTrace
loadStoreFile(const std::string &path)
{
    auto loaded = harness::loadTraceFile(path);
    if (!loaded) {
        std::fprintf(stderr, "%s\n", loaded.error().describe().c_str());
        std::exit(1);
    }
    return std::move(loaded.value());
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    if (!parse(argc, argv, opt)) {
        usage();
        return 1;
    }

    harness::PreparedTrace trace = opt.trace_file.empty()
        ? harness::prepareTrace(profileByName(opt.workload),
                                opt.accesses, opt.seed)
        : loadStoreFile(opt.trace_file);

    std::printf("workload: %s (%zu records)\n", trace.name.c_str(),
                trace.columns.size());
    std::printf("top values:");
    for (auto v : trace.frequent_values)
        std::printf(" %s", util::hex32(v).c_str());
    std::printf("\n\n");

    cache::CacheConfig dmc;
    dmc.size_bytes = opt.dmc_kb * 1024;
    dmc.line_bytes = opt.line_bytes;
    dmc.assoc = opt.assoc;
    dmc.validate();

    // Baseline.
    cache::DmcSystem baseline(dmc);
    harness::replay(trace, baseline);
    auto base_energy =
        timing::systemEnergy(dmc, baseline.stats());
    std::printf("%-34s miss %7.3f%%  traffic %12s B  "
                "energy %7.3f mJ  t=%4.1fns\n",
                baseline.describe().c_str(),
                baseline.stats().missRatePercent(),
                util::withCommas(baseline.stats().trafficBytes())
                    .c_str(),
                base_energy.total_mj(),
                timing::cacheAccessTime(dmc).total());

    if (opt.victim_entries > 0) {
        cache::DmcVictimSystem vc(dmc, opt.victim_entries);
        harness::replay(trace, vc);
        auto energy = timing::systemEnergy(dmc, vc.stats());
        std::printf("%-34s miss %7.3f%%  traffic %12s B  "
                    "energy %7.3f mJ  t=%4.1fns\n",
                    vc.describe().c_str(),
                    vc.stats().missRatePercent(),
                    util::withCommas(vc.stats().trafficBytes())
                        .c_str(),
                    energy.total_mj(),
                    timing::victimAccessTime(opt.victim_entries,
                                             opt.line_bytes)
                        .total());
    } else if (opt.fvc_entries > 0) {
        core::FvcConfig fvc;
        fvc.entries = opt.fvc_entries;
        fvc.line_bytes = opt.line_bytes;
        fvc.code_bits = fvc::util::ceilLog2(opt.values + 1);
        fvc.validate();
        auto sys = harness::runDmcFvc(trace, dmc, fvc);
        auto energy = timing::systemEnergy(*sys, dmc, fvc);
        std::printf("%-34s miss %7.3f%%  traffic %12s B  "
                    "energy %7.3f mJ  t=%4.1fns\n",
                    sys->describe().c_str(),
                    sys->stats().missRatePercent(),
                    util::withCommas(sys->stats().trafficBytes())
                        .c_str(),
                    energy.total_mj(),
                    timing::fvcAccessTime(fvc).total());
        std::printf(
            "\nFVC: %llu read hits, %llu write hits, %llu partial "
            "misses, %llu write allocations, %.0f%% frequent "
            "content\n",
            static_cast<unsigned long long>(
                sys->fvcStats().fvc_read_hits),
            static_cast<unsigned long long>(
                sys->fvcStats().fvc_write_hits),
            static_cast<unsigned long long>(
                sys->fvcStats().partial_misses),
            static_cast<unsigned long long>(
                sys->fvcStats().write_allocations),
            100.0 * sys->fvcStats().averageFrequentContent());
    }
    return 0;
}
