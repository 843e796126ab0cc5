#include "harness/runner.hh"

#include "profiling/value_table.hh"
#include "util/knobs.hh"

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

} // namespace

PreparedTrace
prepareTrace(const workload::BenchmarkProfile &profile,
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

void
installInitialImage(const PreparedTrace &trace,
                    memmodel::FunctionalMemory &image)
{
    trace.initial_image.forEachInteresting(
        [&](trace::Addr addr, trace::Word value) {
            image.write(addr, value);
        });
}

double
dmcMissRate(const PreparedTrace &trace,
            const cache::CacheConfig &config)
{
    cache::DmcSystem system(config);
    replay(trace, system);
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
    replay(trace, *system);
    return system;
}

uint64_t
defaultTraceAccesses()
{
    return util::knobCount("FVC_TRACE_ACCESSES", 2000000, 1,
                           UINT64_MAX);
}

} // namespace fvc::harness
