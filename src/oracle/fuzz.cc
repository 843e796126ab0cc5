#include "oracle/fuzz.hh"

#include <algorithm>
#include <cstdlib>

#include "util/knobs.hh"
#include "util/logging.hh"
#include "util/strings.hh"
#include "util/table.hh"

namespace fvc::oracle::fuzz {

namespace {

using workload::TailKind;
using workload::ValuePoolSpec;

/** Small random value pool: explicit frequent set + two tails. */
ValuePoolSpec
samplePool(util::Rng &rng)
{
    ValuePoolSpec pool;
    const size_t count = static_cast<size_t>(rng.range(4, 12));
    if (rng.chance(0.5)) {
        pool.frequent = workload::smallIntFrequentSet(
            count, 0.3 + rng.real() * 0.4);
    } else {
        for (size_t i = 0; i < count; ++i) {
            pool.frequent.push_back(
                {rng.next32(), 0.25 + rng.real()});
        }
    }
    pool.frequent_mass = 0.4 + rng.real() * 0.5;
    pool.tails.push_back({TailKind::RandomWord, 1.0, 0, 0});
    pool.tails.push_back(
        {TailKind::SmallInt, 0.5 + rng.real(), 0, 1024});
    return pool;
}

/** One random kernel, sized small so tiny caches see evictions. */
workload::KernelSpec
sampleKernel(util::Rng &rng, const cache::CacheConfig &dmc)
{
    workload::KernelSpec spec;
    spec.weight = 0.5 + rng.real();
    switch (rng.below(6)) {
      case 0: {
        workload::HotSpotParams p;
        p.words = 64u << rng.range(0, 4);
        p.zipf_s = rng.real() * 1.2;
        p.write_fraction = 0.1 + rng.real() * 0.5;
        p.burst = static_cast<uint32_t>(rng.range(4, 16));
        p.object_words = 1u << rng.range(0, 3);
        spec.params = p;
        break;
      }
      case 1: {
        workload::ScanParams p;
        p.words = 256u << rng.range(0, 4);
        p.stride_words = 1u << rng.range(0, 2);
        p.write_fraction = 0.1 + rng.real() * 0.5;
        p.burst = static_cast<uint32_t>(rng.range(8, 32));
        spec.params = p;
        break;
      }
      case 2: {
        workload::ConflictParams p;
        p.block_words = dmc.wordsPerLine();
        p.num_blocks = static_cast<uint32_t>(rng.range(2, 5));
        p.stride_bytes = dmc.size_bytes;
        p.write_fraction = 0.1 + rng.real() * 0.5;
        p.touches = static_cast<uint32_t>(rng.range(2, 8));
        spec.params = p;
        break;
      }
      case 3: {
        workload::PointerChaseParams p;
        p.num_nodes = 64u << rng.range(0, 3);
        p.node_words = 1u << rng.range(1, 3);
        p.hops = static_cast<uint32_t>(rng.range(4, 16));
        p.write_fraction = 0.1 + rng.real() * 0.4;
        spec.params = p;
        break;
      }
      case 4: {
        workload::StackParams p;
        p.frame_words = 4u << rng.range(0, 3);
        p.max_depth = static_cast<uint32_t>(rng.range(8, 48));
        p.push_bias = 0.35 + rng.real() * 0.3;
        p.touches = static_cast<uint32_t>(rng.range(4, 12));
        spec.params = p;
        break;
      }
      default: {
        workload::CounterStreamParams p;
        p.words = 256u << rng.range(0, 3);
        p.write_fraction = 0.3 + rng.real() * 0.4;
        p.burst = static_cast<uint32_t>(rng.range(8, 32));
        spec.params = p;
        break;
      }
    }
    return spec;
}

std::string
policyStr(const core::DmcFvcPolicy &policy)
{
    return std::string("skip_barren=") +
           (policy.skip_barren_insertions ? "1" : "0") +
           " write_alloc=" +
           (policy.write_allocate_frequent ? "1" : "0") +
           " occ_interval=" +
           std::to_string(policy.occupancy_sample_interval);
}

} // namespace

std::string
FuzzCell::describe() const
{
    return "seed=" + util::hex64(seed) + " " + profile.name + " x" +
           std::to_string(accesses) + " top_k=" +
           std::to_string(top_k) + " " + cell.describe() + " " +
           policyStr(cell.policy);
}

FuzzCell
cellFromSeed(uint64_t seed)
{
    util::Rng rng(seed);
    FuzzCell out;
    out.seed = seed;

    // Geometry first: the conflict kernel aliases on the DMC size.
    // Small caches so short traces still exercise eviction,
    // insertion, and writeback paths.
    out.cell.dmc.size_bytes = 1u << rng.range(10, 14);
    out.cell.dmc.line_bytes = 1u << rng.range(3, 6);
    out.cell.dmc.assoc = 1u << rng.range(0, 2);
    switch (rng.below(3)) {
      case 0:
        out.cell.dmc.replacement = cache::Replacement::LRU;
        break;
      case 1:
        out.cell.dmc.replacement = cache::Replacement::FIFO;
        break;
      default:
        out.cell.dmc.replacement = cache::Replacement::Random;
        break;
    }
    out.cell.dmc.write_policy = cache::WritePolicy::WriteBack;

    out.cell.fvc.entries = 1u << rng.range(4, 9);
    out.cell.fvc.line_bytes = out.cell.dmc.line_bytes;
    out.cell.fvc.code_bits =
        static_cast<unsigned>(rng.range(1, 4));
    out.cell.fvc.assoc = 1u << rng.range(0, 1);

    if (!rng.chance(0.8)) {
        out.cell.policy.skip_barren_insertions = rng.chance(0.5);
        out.cell.policy.write_allocate_frequent = rng.chance(0.5);
    }
    switch (rng.below(4)) {
      case 0: out.cell.policy.occupancy_sample_interval = 0; break;
      case 1: out.cell.policy.occupancy_sample_interval = 128; break;
      case 2:
        out.cell.policy.occupancy_sample_interval = 1024;
        break;
      default: break; // keep the 4096 default
    }

    out.profile.name = "fuzz-" + util::hex64(seed);
    const int kernels = static_cast<int>(rng.range(1, 3));
    for (int i = 0; i < kernels; ++i)
        out.profile.kernels.push_back(
            sampleKernel(rng, out.cell.dmc));
    if (rng.chance(0.3)) {
        // Two value-pool phases: frequent-set drift mid-trace.
        out.profile.phases.push_back(
            {0.3 + rng.real() * 0.4, samplePool(rng)});
    }
    out.profile.phases.push_back({1.0, samplePool(rng)});
    out.profile.mutate_fraction = 0.1 + rng.real() * 0.4;
    out.profile.instructions_per_access = 2.0 + rng.real() * 4.0;
    out.profile.default_accesses = 4000;

    out.accesses = static_cast<uint64_t>(rng.range(300, 4000));
    out.trace_seed = rng.range(1, 1u << 20);
    out.top_k = static_cast<size_t>(rng.range(4, 16));
    return out;
}

harness::PreparedTrace
buildTrace(const FuzzCell &cell)
{
    return harness::prepareTrace(cell.profile, cell.accesses,
                                 cell.trace_seed, cell.top_k);
}

harness::PreparedTrace
subsetTrace(const harness::PreparedTrace &base,
            const std::vector<trace::MemRecord> &records)
{
    harness::PreparedTrace out;
    out.name = base.name + "-shrink";
    out.columns = sim::ChunkedTrace::fromRecords(records);
    out.frequent_values = base.frequent_values;
    out.initial_image = base.initial_image;
    out.final_image = base.initial_image;
    for (const trace::MemRecord &rec : records) {
        if (rec.isStore())
            out.final_image.write(rec.addr, rec.value);
    }
    out.instructions =
        records.empty() ? 0 : records.back().icount;
    return out;
}

std::optional<Finding>
runCell(const FuzzCell &cell, const DiffRunner &runner)
{
    harness::PreparedTrace trace = buildTrace(cell);

    std::optional<Divergence> divergence;
    for (Path path : allPaths()) {
        divergence = runner.runPath(trace, cell.cell, path);
        if (divergence)
            break;
    }
    if (!divergence)
        return std::nullopt;

    std::vector<trace::MemRecord> records;
    records.reserve(trace.columns.size());
    trace.columns.forEachRecord([&](const trace::MemRecord &rec) {
        if (rec.isAccess())
            records.push_back(rec);
    });

    const Path failing = divergence->path;
    auto fails = [&](const std::vector<trace::MemRecord> &subset) {
        harness::PreparedTrace candidate =
            subsetTrace(trace, subset);
        return runner.runPath(candidate, cell.cell, failing)
            .has_value();
    };

    // Shortest failing prefix by binary search. The invariant (the
    // [0, hi) prefix fails) holds even if failure is non-monotone:
    // hi only ever moves to a prefix that was tested and failed.
    size_t lo = 0;
    size_t hi = records.size();
    while (lo + 1 < hi) {
        const size_t mid = lo + (hi - lo) / 2;
        std::vector<trace::MemRecord> prefix(
            records.begin(),
            records.begin() + static_cast<ptrdiff_t>(mid));
        if (fails(prefix))
            hi = mid;
        else
            lo = mid;
    }
    records.resize(hi);

    // ddmin-style deletion: remove chunks coarse-to-fine, ending
    // with single-record passes, repeating each granularity until
    // it stops helping.
    for (size_t chunk = records.size() / 2; chunk >= 1;
         chunk = chunk / 2) {
        bool removed = true;
        while (removed) {
            removed = false;
            for (size_t start = 0; start < records.size();) {
                std::vector<trace::MemRecord> candidate;
                candidate.reserve(records.size());
                const size_t end =
                    std::min(records.size(), start + chunk);
                candidate.insert(
                    candidate.end(), records.begin(),
                    records.begin() +
                        static_cast<ptrdiff_t>(start));
                candidate.insert(candidate.end(),
                                 records.begin() +
                                     static_cast<ptrdiff_t>(end),
                                 records.end());
                if (!candidate.empty() && fails(candidate)) {
                    records = std::move(candidate);
                    removed = true;
                    // do not advance: the next chunk slid into
                    // this start position
                } else {
                    start += chunk;
                }
            }
        }
        if (chunk == 1)
            break;
    }

    Finding finding;
    finding.cell = cell;
    finding.path = failing;
    finding.field = divergence->field;
    finding.original_records = trace.columns.size();
    finding.shrunk = records;

    util::Table spec({"key", "value"});
    spec.addRow({"fuzz_seed", util::hex64(cell.seed)});
    spec.addRow({"mutation", mutationName(mutationFromEnv())});
    spec.addRow({"profile", cell.profile.name});
    spec.addRow({"accesses", std::to_string(cell.accesses)});
    spec.addRow({"trace_seed", std::to_string(cell.trace_seed)});
    spec.addRow({"top_k", std::to_string(cell.top_k)});
    spec.addRow({"dmc", cell.cell.dmc.describe()});
    spec.addRow({"fvc", cell.cell.fvc.describe()});
    spec.addRow({"policy", policyStr(cell.cell.policy)});
    spec.addRow({"path", pathName(failing)});
    spec.addRow({"first_diverging_field", finding.field});
    spec.addRow({"original_records",
                 std::to_string(finding.original_records)});
    spec.addRow({"shrunk_records",
                 std::to_string(finding.shrunk.size())});
    spec.exportCsv("fuzz_repro_spec");

    util::Table tr({"idx", "op", "addr", "value"});
    tr.alignRight(0);
    const size_t kMaxDump = 256;
    for (size_t i = 0;
         i < finding.shrunk.size() && i < kMaxDump; ++i) {
        const trace::MemRecord &rec = finding.shrunk[i];
        tr.addRow({std::to_string(i),
                   rec.isLoad() ? "load" : "store",
                   util::hex32(rec.addr),
                   util::hex32(rec.value)});
    }
    if (finding.shrunk.size() > kMaxDump) {
        tr.addRow({"...", "...",
                   std::to_string(finding.shrunk.size() - kMaxDump) +
                       " more",
                   "..."});
    }
    tr.exportCsv("fuzz_repro_trace");

    finding.repro = "fuzz counterexample (" +
                    std::string(pathName(failing)) + ")\n" +
                    spec.render() + tr.render();
    return finding;
}

uint64_t
fuzzBudget(uint64_t fallback)
{
    const std::string raw = util::knobText("FVC_FUZZ_BUDGET");
    if (raw.empty())
        return fallback;
    auto parsed = util::parseUint(raw);
    if (!parsed || *parsed == 0) {
        fvc_fatal("FVC_FUZZ_BUDGET must be a positive integer, got '",
                  raw, "'");
    }
    return *parsed;
}

} // namespace fvc::oracle::fuzz
