#include "resultcache/repository.hh"

#include <algorithm>
#include <filesystem>
#include <iterator>
#include <tuple>
#include <unordered_map>
#include <unordered_set>

#include "fabric/fabric.hh"
#include "harness/parallel.hh"
#include "harness/report.hh"
#include "harness/trace_repo.hh"
#include "resultcache/result_store.hh"
#include "sim/multi_config.hh"
#include "util/knobs.hh"
#include "util/strings.hh"

namespace fvc::resultcache {

namespace {

/** Cells the single-pass engine can carry: write-back DMC with no
 * victim buffer or L2 behind it (MultiConfigSimulator's lane kernel
 * covers exactly the bare-DMC and DMC+FVC kinds). */
bool
singlePassEligible(const fabric::CellSpec &cell)
{
    return cell.dmc.write_policy == cache::WritePolicy::WriteBack &&
           cell.victim_entries == 0 && !cell.has_l2;
}

/** The plan splits lane units until it holds this many units per
 * pool thread: finer splits repeat more per-block encode work than
 * the idle time they save. */
constexpr size_t kUnitsPerThread = 2;

/** The smallest lane unit the plan splits. */
constexpr size_t kMinSplitCells = 4;

/** Lane-group order: cells adjacent in it share MultiConfigSimulator
 * lane groups and frequent-value encoders, so each half of a split
 * builds fewer of them and a bare-only half skips the shared image. */
auto
laneGroupKey(const fabric::CellSpec &cell)
{
    return std::make_tuple(cell.has_fvc,
                           cell.has_fvc ? cell.fvc.code_bits : 0u,
                           cell.dmc.line_bytes, cell.dmc.assoc);
}

/** Split lane unit @p unit (at least two cells) in two: order its
 * cells by lane-group key, cut where the head's cost is closest to
 * half, keep the head in @p unit and return the tail. */
DispatchUnit
splitLaneUnit(DispatchUnit &unit,
              const std::vector<fabric::CellSpec> &cells)
{
    std::stable_sort(unit.cells.begin(), unit.cells.end(),
                     [&](size_t a, size_t b) {
                         return laneGroupKey(cells[a]) <
                                laneGroupKey(cells[b]);
                     });
    const auto gap = [total = unit.cost](uint64_t head) {
        return head * 2 > total ? head * 2 - total : total - head * 2;
    };
    size_t cut = 1;
    uint64_t head = cellCost(cells[unit.cells[0]]);
    while (cut + 1 < unit.cells.size()) {
        const uint64_t next = head + cellCost(cells[unit.cells[cut]]);
        if (gap(next) >= gap(head))
            break;
        head = next;
        ++cut;
    }
    DispatchUnit tail;
    tail.cells.assign(unit.cells.begin() + cut, unit.cells.end());
    tail.cost = unit.cost - head;
    tail.trace = unit.trace;
    tail.lane = true;
    unit.cells.resize(cut);
    unit.cost = head;
    return tail;
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

/** The store's records by fingerprint; empty when @p mode is
 * Disabled or the file is absent or unreadable. A corrupt or torn
 * file serves what survived — the rejected records regenerate on
 * their next miss and that publish heals the file wholesale. */
std::unordered_map<uint64_t, fabric::CellStats>
readStored(ResultMode mode)
{
    std::unordered_map<uint64_t, fabric::CellStats> known;
    if (mode == ResultMode::Disabled)
        return known;
    std::error_code ec;
    const std::string path = resultFilePath();
    if (!std::filesystem::exists(path, ec))
        return known;
    auto contents = readResultFile(path);
    if (!contents.ok()) {
        fvc_warn("result store unreadable (",
                 contents.error().describe(), "); treating as cold");
        return known;
    }
    if (contents.value().rejected_frames) {
        fvc_warn("result store ", path, ": ",
                 contents.value().rejected_frames,
                 " corrupt record(s) rejected");
    }
    for (const auto &r : contents.value().records)
        known.emplace(r.fingerprint, r.stats);
    return known;
}

} // namespace

ResultMode
resultMode()
{
    if (resultDir().empty())
        return ResultMode::Disabled;
    return util::knobStoreMode("FVC_RESULT_CACHE");
}

bool
expectWarm()
{
    return util::knobFlag("FVC_RESULT_EXPECT_WARM");
}

std::string
resultDir()
{
    return util::knobText("FVC_RESULT_DIR");
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
    const uint64_t mb = util::knobCount("FVC_RESULT_CACHE_MB",
                                        UINT64_MAX, 0,
                                        UINT64_MAX >> 20);
    return mb == UINT64_MAX ? UINT64_MAX : mb << 20;
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

std::vector<DispatchUnit>
planDispatch(const std::vector<fabric::CellSpec> &cells,
             unsigned threads)
{
    std::vector<DispatchUnit> units;
    std::unordered_map<uint64_t, size_t> lane_unit_of_trace;
    for (size_t i = 0; i < cells.size(); ++i) {
        const uint64_t cost = cellCost(cells[i]);
        const uint64_t trace = fabric::cellTraceHash(cells[i]);
        if (!singlePassEligible(cells[i])) {
            units.push_back({{i}, cost, trace, false});
            continue;
        }
        auto [it, fresh] =
            lane_unit_of_trace.try_emplace(trace, units.size());
        if (fresh)
            units.push_back({{}, 0, trace, true});
        units[it->second].cells.push_back(i);
        units[it->second].cost += cost;
    }

    // Split the costliest lane unit while the pool would idle. The
    // tail goes right after its head, so equal-cost units keep the
    // submission order of the groups they came from.
    while (threads > 1 && units.size() < kUnitsPerThread * threads) {
        size_t costliest = units.size();
        for (size_t u = 0; u < units.size(); ++u) {
            if (units[u].lane &&
                units[u].cells.size() >= kMinSplitCells &&
                (costliest == units.size() ||
                 units[u].cost > units[costliest].cost))
                costliest = u;
        }
        if (costliest == units.size())
            break;
        DispatchUnit tail = splitLaneUnit(units[costliest], cells);
        units.insert(units.begin() + costliest + 1, std::move(tail));
    }

    std::stable_sort(units.begin(), units.end(),
                     [](const DispatchUnit &a, const DispatchUnit &b) {
                         return a.cost > b.cost;
                     });

    // Each trace's first unit ahead of every later unit, both parts
    // still longest first.
    std::vector<DispatchUnit> plan, later;
    std::unordered_set<uint64_t> started;
    for (auto &unit : units) {
        if (started.insert(unit.trace).second)
            plan.push_back(std::move(unit));
        else
            later.push_back(std::move(unit));
    }
    plan.insert(plan.end(), std::make_move_iterator(later.begin()),
                std::make_move_iterator(later.end()));
    return plan;
}

std::vector<std::optional<fabric::CellStats>>
ResultRepository::runCells(const std::vector<fabric::CellSpec> &cells,
                           const std::string &what)
{
    const size_t n = cells.size();
    std::vector<uint64_t> fps(n);
    for (size_t i = 0; i < n; ++i)
        fps[i] = fabric::cellFingerprint(cells[i]);

    // Tier 1: the persistent store.
    const ResultMode mode = resultMode();
    auto known = readStored(mode);

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
                outcome.failures,
                miss_indices.size(), what);
        }
        miss_results = std::move(outcome.results);
    } else if (!miss_indices.empty()) {
        // Thread backend: the whole plan is one sweep, and a failed
        // unit fails exactly its own cells. The report lists those
        // cells, as the fabric's does.
        std::vector<fabric::CellSpec> misses;
        misses.reserve(miss_indices.size());
        for (size_t idx : miss_indices)
            misses.push_back(cells[idx]);
        const auto plan = planDispatch(
            misses, harness::ThreadPool::shared().threadCount());
        harness::SweepRunner<std::vector<fabric::CellStats>> sweep;
        for (const auto &unit : plan) {
            std::vector<fabric::CellSpec> group;
            group.reserve(unit.cells.size());
            for (size_t k : unit.cells)
                group.push_back(misses[k]);
            sweep.submit([group = std::move(group), lane = unit.lane] {
                if (lane)
                    return runGroup(group);
                return std::vector<fabric::CellStats>{
                    fabric::simulateCell(group.front())};
            });
        }
        auto outcome = sweep.runChecked();
        std::vector<harness::JobFailure> failures;
        for (const auto &failure : outcome.failures) {
            for (size_t k : plan[failure.index].cells) {
                failures.push_back(
                    {k, misses[k].describe() + ": " + failure.message});
            }
        }
        if (!failures.empty()) {
            std::sort(failures.begin(), failures.end(),
                      [](const auto &a, const auto &b) {
                          return a.index < b.index;
                      });
            harness::reportSweepFailures(failures, misses.size(), what);
        }
        for (size_t u = 0; u < plan.size(); ++u) {
            if (!outcome.results[u])
                continue;
            for (size_t j = 0; j < plan[u].cells.size(); ++j)
                miss_results[plan[u].cells[j]] = (*outcome.results[u])[j];
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

std::optional<std::vector<fabric::CellStats>>
ResultRepository::serveStored(const std::vector<fabric::CellSpec> &cells)
{
    const auto known = readStored(resultMode());
    std::vector<fabric::CellStats> out;
    out.reserve(cells.size());
    for (const auto &cell : cells) {
        auto it = known.find(fabric::cellFingerprint(cell));
        if (it == known.end())
            return std::nullopt;
        out.push_back(it->second);
    }
    store_hits_ += cells.size();
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
