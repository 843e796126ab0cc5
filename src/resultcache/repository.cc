#include "resultcache/repository.hh"

#include <cstdlib>
#include <filesystem>
#include <map>
#include <unordered_map>
#include <unordered_set>

#include "fabric/fabric.hh"
#include "harness/parallel.hh"
#include "harness/report.hh"
#include "harness/trace_repo.hh"
#include "resultcache/result_store.hh"
#include "sim/multi_config.hh"
#include "util/strings.hh"

namespace fvc::resultcache {

namespace {

/** True iff any simulation is a hard failure
 * (FVC_RESULT_EXPECT_WARM): the bench acceptance gate for "the
 * warm run touched nothing but the store". */
bool
expectWarm()
{
    const char *env = std::getenv("FVC_RESULT_EXPECT_WARM");
    return env && *env && std::string(env) != "0";
}

/** Cells the single-pass engine can carry: write-back DMC with no
 * victim buffer or L2 behind it (MultiConfigSimulator's lane kernel
 * covers exactly the bare-DMC and DMC+FVC kinds). */
bool
singlePassEligible(const fabric::CellSpec &cell)
{
    return cell.dmc.write_policy == cache::WritePolicy::WriteBack &&
           cell.victim_entries == 0 && !cell.has_l2;
}

/** Simulate one trace-sharing group through the single-pass
 * engine; cell order within the group is preserved. */
std::vector<fabric::CellStats>
runGroup(const std::vector<fabric::CellSpec> &group)
{
    auto profile = fabric::cellProfile(group.front());
    auto trace = harness::sharedTrace(profile,
                                      group.front().accesses,
                                      group.front().seed,
                                      group.front().top_k);
    sim::MultiConfigSimulator engine(trace->columns,
                                     trace->initial_image,
                                     trace->frequent_values);
    for (const auto &cell : group) {
        if (cell.has_fvc)
            engine.addDmcFvc(cell.dmc, cell.fvc, cell.policy);
        else
            engine.addDmc(cell.dmc);
    }
    engine.run();
    std::vector<fabric::CellStats> out(group.size());
    for (size_t c = 0; c < group.size(); ++c) {
        out[c].cache = engine.stats(c);
        if (const auto *fvc = engine.fvcStats(c))
            out[c].fvc = *fvc;
    }
    return out;
}

} // namespace

ResultMode
resultMode()
{
    if (resultDir().empty())
        return ResultMode::Disabled;
    const char *env = std::getenv("FVC_RESULT_CACHE");
    if (!env || !*env)
        return ResultMode::ReadWrite;
    const std::string value(env);
    if (value == "on" || value == "1")
        return ResultMode::ReadWrite;
    if (value == "off" || value == "0")
        return ResultMode::Disabled;
    if (value == "readonly")
        return ResultMode::ReadOnly;
    fvc_warn("ignoring bad FVC_RESULT_CACHE value "
             "(want on/off/readonly): ",
             env);
    return ResultMode::ReadWrite;
}

std::string
resultDir()
{
    const char *env = std::getenv("FVC_RESULT_DIR");
    return env ? std::string(env) : std::string();
}

std::string
resultFilePath()
{
    return resultDir() + "/results" + kResultExtension;
}

const char *
resultCacheStateName()
{
    if (resultMode() == ResultMode::Disabled)
        return "off";
    std::error_code ec;
    return std::filesystem::exists(resultFilePath(), ec) ? "warm"
                                                         : "cold";
}

uint64_t
resultCapBytes()
{
    const char *env = std::getenv("FVC_RESULT_CACHE_MB");
    if (!env || !*env)
        return UINT64_MAX;
    auto parsed = util::parseUint(env);
    if (!parsed) {
        fvc_warn("ignoring bad FVC_RESULT_CACHE_MB value: ", env);
        return UINT64_MAX;
    }
    return *parsed * 1024 * 1024;
}

uint64_t
cellCost(const fabric::CellSpec &cell)
{
    // Replay work scales with trace length times the structures
    // each record visits; the geometry term separates big-cache
    // cells from small ones at equal trace length. Deterministic
    // by construction — never measured, so admission cannot churn.
    uint64_t factor = 2;
    if (cell.has_fvc)
        factor += 2;
    if (cell.victim_entries)
        factor += 1 + cell.victim_entries / 8;
    if (cell.has_l2)
        factor += 2;
    return cell.accesses * factor +
           cell.dmc.size_bytes / 64 +
           (cell.has_l2 ? cell.l2.size_bytes / 64 : 0);
}

std::vector<std::optional<fabric::CellStats>>
ResultRepository::runCells(const std::vector<fabric::CellSpec> &cells,
                           const std::string &what)
{
    const size_t n = cells.size();
    std::vector<uint64_t> fps(n);
    for (size_t i = 0; i < n; ++i)
        fps[i] = fabric::cellFingerprint(cells[i]);

    // Tier 1: the persistent store. A corrupt or torn file serves
    // what survived — the rejected records regenerate below and the
    // next publish heals the file wholesale.
    const ResultMode mode = resultMode();
    std::unordered_map<uint64_t, fabric::CellStats> known;
    if (mode != ResultMode::Disabled) {
        std::error_code ec;
        const std::string path = resultFilePath();
        if (std::filesystem::exists(path, ec)) {
            auto contents = readResultFile(path);
            if (contents.ok()) {
                if (contents.value().rejected_frames) {
                    fvc_warn("result store ", path, ": ",
                             contents.value().rejected_frames,
                             " corrupt record(s) rejected");
                }
                for (const auto &r : contents.value().records)
                    known.emplace(r.fingerprint, r.stats);
            } else {
                fvc_warn("result store unreadable (",
                         contents.error().describe(),
                         "); treating as cold");
            }
        }
    }

    // Resume: the spills a killed fabric run left in FVC_FABRIC_DIR
    // hold finished cells. They serve like store hits and publish
    // with the fresh results; a harvested record outside this sweep
    // has no spec to price it, so it enters at admission cost 0.
    fabric::DeadSpills dead;
    std::vector<ResultRecord> fresh;
    if (mode == ResultMode::ReadWrite &&
        fabric::fabricDirConfigured()) {
        dead = fabric::harvestDeadSpills(fabric::fabricDir());
        std::unordered_map<uint64_t, size_t> index_of;
        for (size_t i = 0; i < n; ++i)
            index_of.emplace(fps[i], i);
        for (const auto &r : dead.records) {
            if (!known.emplace(r.fingerprint, r.stats).second)
                continue;
            auto it = index_of.find(r.fingerprint);
            const uint64_t cost =
                it == index_of.end() ? 0 : cellCost(cells[it->second]);
            fresh.push_back({r.fingerprint, cost, r.stats});
        }
    }

    // Dedupe + partition: one dispatch slot per novel fingerprint,
    // in submission order of its first occurrence.
    std::vector<size_t> miss_indices;
    std::unordered_set<uint64_t> queued;
    for (size_t i = 0; i < n; ++i) {
        if (known.count(fps[i])) {
            ++store_hits_;
            continue;
        }
        if (!queued.insert(fps[i]).second) {
            ++dedups_;
            continue;
        }
        miss_indices.push_back(i);
    }

    if (!miss_indices.empty() && expectWarm()) {
        fvc_fatal("FVC_RESULT_EXPECT_WARM is set but ",
                  miss_indices.size(), " of ", n, " cell(s) in ",
                  what, " missed the result cache (first: ",
                  cells[miss_indices.front()].describe(), ")");
    }

    // Dispatch the misses through the same engines the benches used
    // to drive directly; results are byte-identical by the fabric /
    // single-pass determinism contract.
    std::vector<std::optional<fabric::CellStats>> miss_results(
        miss_indices.size());
    simulations_ += miss_indices.size();
    if (!miss_indices.empty() && fabric::configuredWorkers()) {
        fabric::FabricRunner runner;
        for (size_t idx : miss_indices)
            runner.submit(cells[idx]);
        fabric::FabricOutcome outcome = runner.run();
        if (!outcome.failures.empty()) {
            harness::reportSweepFailures(
                fabric::toJobFailures(outcome),
                miss_indices.size(), what);
        }
        miss_results = std::move(outcome.results);
    } else if (!miss_indices.empty()) {
        // Thread backend: group single-pass-eligible cells by their
        // shared trace (one replay per trace covers all its cells),
        // everything else one job per cell.
        std::vector<size_t> grouped_slots, single_slots;
        std::map<uint64_t, std::vector<size_t>> groups_by_trace;
        for (size_t k = 0; k < miss_indices.size(); ++k) {
            const auto &cell = cells[miss_indices[k]];
            if (singlePassEligible(cell)) {
                groups_by_trace[fabric::cellTraceHash(cell)]
                    .push_back(k);
            } else {
                single_slots.push_back(k);
            }
        }

        if (!groups_by_trace.empty()) {
            harness::SweepRunner<std::vector<fabric::CellStats>>
                sweep;
            for (const auto &[hash, slots] : groups_by_trace) {
                (void)hash;
                std::vector<fabric::CellSpec> group;
                group.reserve(slots.size());
                for (size_t k : slots)
                    group.push_back(cells[miss_indices[k]]);
                sweep.submit(
                    [group = std::move(group)] {
                        return runGroup(group);
                    });
                grouped_slots.insert(grouped_slots.end(),
                                     slots.begin(), slots.end());
            }
            auto results = harness::runDegraded(sweep, what);
            size_t cursor = 0;
            size_t g = 0;
            for (const auto &[hash, slots] : groups_by_trace) {
                (void)hash;
                for (size_t j = 0; j < slots.size(); ++j) {
                    size_t k = grouped_slots[cursor++];
                    if (results[g])
                        miss_results[k] = (*results[g])[j];
                }
                ++g;
            }
        }

        if (!single_slots.empty()) {
            harness::SweepRunner<fabric::CellStats> sweep;
            for (size_t k : single_slots) {
                fabric::CellSpec cell = cells[miss_indices[k]];
                sweep.submit([cell = std::move(cell)] {
                    return fabric::simulateCell(cell);
                });
            }
            auto results = harness::runDegraded(sweep, what);
            for (size_t j = 0; j < single_slots.size(); ++j)
                miss_results[single_slots[j]] =
                    std::move(results[j]);
        }
    }

    // Publish fresh results and harvested records; the dead spills
    // go only once their records are durable in the store.
    if (mode == ResultMode::ReadWrite) {
        for (size_t k = 0; k < miss_indices.size(); ++k) {
            if (!miss_results[k])
                continue;
            ResultRecord record;
            record.fingerprint = fps[miss_indices[k]];
            record.cost = cellCost(cells[miss_indices[k]]);
            record.stats = *miss_results[k];
            fresh.push_back(record);
        }
        bool published = fresh.empty();
        std::error_code ec;
        if (!fresh.empty()) {
            std::filesystem::create_directories(resultDir(), ec);
            if (auto err = publishResults(resultFilePath(), fresh,
                                          resultCapBytes())) {
                fvc_warn("result store publish failed: ",
                         err->describe());
            } else {
                store_writes_ += fresh.size();
                published = true;
            }
        }
        if (published) {
            for (const auto &path : dead.paths)
                std::filesystem::remove(path, ec);
        }
    }

    // Assemble per-submission results: store hits, fresh results,
    // and duplicates all resolve through the fingerprint.
    std::unordered_map<uint64_t,
                       std::optional<fabric::CellStats>>
        resolved;
    resolved.reserve(known.size() + miss_indices.size());
    for (const auto &[fp, stats] : known)
        resolved.emplace(fp, stats);
    for (size_t k = 0; k < miss_indices.size(); ++k)
        resolved[fps[miss_indices[k]]] = miss_results[k];

    std::vector<std::optional<fabric::CellStats>> out;
    out.reserve(n);
    for (size_t i = 0; i < n; ++i)
        out.push_back(resolved[fps[i]]);
    return out;
}

ResultRepository &
ResultRepository::shared()
{
    static ResultRepository repository;
    return repository;
}

std::vector<std::optional<fabric::CellStats>>
runCells(const std::vector<fabric::CellSpec> &cells,
         const std::string &what)
{
    return ResultRepository::shared().runCells(cells, what);
}

} // namespace fvc::resultcache
