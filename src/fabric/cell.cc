#include "fabric/cell.hh"

#include "cache/cache_system.hh"
#include "cache/two_level.hh"
#include "cache/victim_cache.hh"
#include "harness/runner.hh"
#include "harness/trace_repo.hh"
#include "workload/fingerprint.hh"

namespace fvc::fabric {

namespace {

/** splitmix64 finalizer (same mixer the trace store key uses). */
uint64_t
mix64(uint64_t z)
{
    z += 0x9e3779b97f4a7c15ull;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

harness::TraceKey
traceKey(const CellSpec &cell)
{
    auto profile = cellProfile(cell);
    harness::TraceKey key;
    key.profile = profile.name;
    key.profile_hash = workload::profileFingerprint(profile);
    key.accesses = cell.accesses;
    key.seed = cell.seed;
    key.top_k = cell.top_k;
    key.gen_shards = harness::genShards();
    return key;
}

} // namespace

workload::BenchmarkProfile
cellProfile(const CellSpec &cell)
{
    if (!cell.fp_name.empty())
        return workload::specFpProfile(cell.fp_name);
    return workload::specIntProfile(cell.bench, cell.input);
}

std::string
CellSpec::describe() const
{
    std::string out = fp_name.empty() ? workload::specIntName(bench)
                                      : fp_name;
    out.append(" ").append(dmc.describe());
    if (has_fvc)
        out.append(" + ").append(fvc.describe());
    if (victim_entries) {
        out.append(" + ")
            .append(std::to_string(victim_entries))
            .append("-entry VC");
    }
    if (has_l2)
        out.append(" + L2 ").append(l2.describe());
    return out;
}

uint64_t
cellTraceHash(const CellSpec &cell)
{
    // The same content key the persistent trace store files are
    // addressed by: equal hashes really do mean "same mapped file".
    return harness::storeContentKey(traceKey(cell));
}

uint64_t
cellFingerprint(const CellSpec &cell)
{
    uint64_t h = cellTraceHash(cell);
    h = mix64(h ^ cell.dmc.size_bytes);
    h = mix64(h ^ cell.dmc.line_bytes);
    h = mix64(h ^ cell.dmc.assoc);
    h = mix64(h ^ static_cast<uint64_t>(cell.dmc.replacement));
    h = mix64(h ^ static_cast<uint64_t>(cell.dmc.write_policy));
    h = mix64(h ^ (cell.has_fvc ? 1u : 0u));
    if (cell.has_fvc) {
        h = mix64(h ^ cell.fvc.entries);
        h = mix64(h ^ cell.fvc.line_bytes);
        h = mix64(h ^ cell.fvc.code_bits);
        h = mix64(h ^ cell.fvc.assoc);
        h = mix64(h ^ (cell.policy.skip_barren_insertions ? 2u : 0u) ^
                  (cell.policy.write_allocate_frequent ? 4u : 0u));
        h = mix64(h ^ cell.policy.occupancy_sample_interval);
    }
    // New cell kinds mix only when active, so fingerprints of
    // plain DMC / DMC+FVC cells (already on disk in result stores)
    // are unchanged by their introduction.
    if (cell.victim_entries)
        h = mix64(h ^ (0x5643ull << 32) ^ cell.victim_entries);
    if (cell.has_l2) {
        h = mix64(h ^ (0x4c32ull << 32));
        h = mix64(h ^ cell.l2.size_bytes);
        h = mix64(h ^ cell.l2.line_bytes);
        h = mix64(h ^ cell.l2.assoc);
        h = mix64(h ^ static_cast<uint64_t>(cell.l2.replacement));
        h = mix64(h ^ static_cast<uint64_t>(cell.l2.write_policy));
    }
    return h;
}

CellStats
simulateCell(const CellSpec &cell)
{
    fvc_assert(!(cell.has_fvc &&
                 (cell.victim_entries || cell.has_l2)) &&
                   !(cell.victim_entries && cell.has_l2),
               "cell mixes exclusive system kinds: ",
               cell.describe());
    auto profile = cellProfile(cell);
    auto trace = harness::sharedTrace(profile, cell.accesses,
                                      cell.seed, cell.top_k);
    CellStats stats;
    if (cell.victim_entries) {
        cache::DmcVictimSystem system(cell.dmc,
                                      cell.victim_entries);
        harness::replay(*trace, system);
        stats.cache = system.stats();
        return stats;
    }
    if (cell.has_l2) {
        cache::TwoLevelSystem system(cell.dmc, cell.l2);
        harness::replay(*trace, system);
        stats.cache = system.stats();
        return stats;
    }
    if (!cell.has_fvc) {
        cache::DmcSystem system(cell.dmc);
        harness::replay(*trace, system);
        stats.cache = system.stats();
        return stats;
    }
    core::FrequentValueEncoding encoding(trace->frequent_values,
                                         cell.fvc.code_bits);
    core::DmcFvcSystem system(cell.dmc, cell.fvc,
                              std::move(encoding), cell.policy);
    harness::replay(*trace, system);
    stats.cache = system.stats();
    stats.fvc = system.fvcStats();
    return stats;
}

} // namespace fvc::fabric
