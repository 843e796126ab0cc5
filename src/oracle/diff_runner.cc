#include "oracle/diff_runner.hh"

#include <sys/stat.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>

#include "harness/trace_repo.hh"
#include "sim/multi_config.hh"
#include "sim/simd_dispatch.hh"
#include "util/logging.hh"
#include "util/strings.hh"
#include "util/table.hh"

namespace fvc::oracle {

namespace {

/** One compared stats field, both sides widened to raw 64-bit. */
struct FieldPair
{
    const char *name;
    uint64_t oracle;
    uint64_t production;
    bool is_double;
};

uint64_t
doubleBits(double v)
{
    uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    return bits;
}

std::string
doubleStr(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

/** Every CacheStats + FvcStats field, in a fixed report order. */
std::vector<FieldPair>
statFields(const cache::CacheStats &oc, const core::FvcStats &of,
           const cache::CacheStats &pc, const core::FvcStats &pf)
{
    return {
        {"read_hits", oc.read_hits, pc.read_hits, false},
        {"read_misses", oc.read_misses, pc.read_misses, false},
        {"write_hits", oc.write_hits, pc.write_hits, false},
        {"write_misses", oc.write_misses, pc.write_misses, false},
        {"fills", oc.fills, pc.fills, false},
        {"writebacks", oc.writebacks, pc.writebacks, false},
        {"fetch_bytes", oc.fetch_bytes, pc.fetch_bytes, false},
        {"writeback_bytes", oc.writeback_bytes, pc.writeback_bytes,
         false},
        {"fvc_read_hits", of.fvc_read_hits, pf.fvc_read_hits, false},
        {"fvc_write_hits", of.fvc_write_hits, pf.fvc_write_hits,
         false},
        {"partial_misses", of.partial_misses, pf.partial_misses,
         false},
        {"write_allocations", of.write_allocations,
         pf.write_allocations, false},
        {"insertions", of.insertions, pf.insertions, false},
        {"insertions_skipped", of.insertions_skipped,
         pf.insertions_skipped, false},
        {"fvc_writebacks", of.fvc_writebacks, pf.fvc_writebacks,
         false},
        {"occupancy_samples", of.occupancy_samples,
         pf.occupancy_samples, false},
        {"occupancy_sum", doubleBits(of.occupancy_sum),
         doubleBits(pf.occupancy_sum), true},
    };
}

/** Name of the first differing field, or nullptr when equal. */
const char *
firstDiff(const cache::CacheStats &oc, const core::FvcStats &of,
          const cache::CacheStats &pc, const core::FvcStats &pf)
{
    for (const FieldPair &f : statFields(oc, of, pc, pf)) {
        if (f.oracle != f.production)
            return f.name;
    }
    return nullptr;
}

} // namespace

const std::vector<Path> &
allPaths()
{
    static const std::vector<Path> paths = {
        Path::Serial, Path::LaneScalar, Path::Simd, Path::MmapWarm};
    return paths;
}

const char *
pathName(Path path)
{
    switch (path) {
      case Path::Serial: return "serial";
      case Path::LaneScalar: return "lane-scalar";
      case Path::Simd: return "simd";
      case Path::MmapWarm: return "mmap-warm";
    }
    fvc_panic("unreachable path");
}

std::string
DiffCell::describe() const
{
    return dmc.describe() + " + " + fvc.describe();
}

DiffRunner::DiffRunner(std::string label) : label_(std::move(label))
{
}

OracleDmcFvc
DiffRunner::oracleReplay(const harness::PreparedTrace &trace,
                         const DiffCell &cell)
{
    OracleDmcFvc oracle(cell.dmc, cell.fvc, trace.frequent_values,
                        cell.policy);
    trace.initial_image.forEachInteresting(
        [&oracle](Addr addr, Word value) {
            oracle.installWord(addr, value);
        });
    trace.columns.forEachRecord([&oracle](const trace::MemRecord &rec) {
        if (rec.isAccess())
            oracle.access(rec);
    });
    oracle.flush();
    return oracle;
}

Divergence
DiffRunner::makeDivergence(Path path, size_t access_index,
                           const trace::MemRecord &record,
                           const DiffCell &cell,
                           const OracleDmcFvc &oracle,
                           const cache::CacheStats &prod_stats,
                           const core::FvcStats &prod_fvc) const
{
    Divergence out;
    out.path = path;
    out.access_index = access_index;
    out.record = record;

    auto fields = statFields(oracle.stats(), oracle.fvcStats(),
                             prod_stats, prod_fvc);
    for (const FieldPair &f : fields) {
        if (f.oracle != f.production) {
            out.field = f.name;
            break;
        }
    }

    const bool at_access = access_index != SIZE_MAX;

    util::Table context({"key", "value"});
    context.addRow({"path", pathName(path)});
    context.addRow({"cell", cell.describe()});
    context.addRow({"policy",
                    std::string("skip_barren=") +
                        (cell.policy.skip_barren_insertions ? "1"
                                                            : "0") +
                        " write_alloc=" +
                        (cell.policy.write_allocate_frequent ? "1"
                                                             : "0") +
                        " occ_interval=" +
                        std::to_string(
                            cell.policy.occupancy_sample_interval)});
    context.addRow({"mutation", mutationName(oracle.mutation())});
    context.addRow({"access_index",
                    at_access ? std::to_string(access_index)
                              : "final"});
    context.addRow({"op", !at_access           ? "-"
                          : record.isLoad()    ? "load"
                                               : "store"});
    context.addRow({"addr", at_access
                                ? util::hex32(record.addr)
                                : "-"});
    context.addRow({"value", at_access
                                 ? util::hex32(record.value)
                                 : "-"});
    context.addRow({"first_diverging_field", out.field});
    context.exportCsv(label_ + "_context");

    util::Table stats({"field", "oracle", "production"});
    stats.alignRight(1);
    stats.alignRight(2);
    for (const FieldPair &f : fields) {
        std::string ov, pv;
        if (f.is_double) {
            double od = 0, pd = 0;
            std::memcpy(&od, &f.oracle, sizeof(od));
            std::memcpy(&pd, &f.production, sizeof(pd));
            ov = doubleStr(od);
            pv = doubleStr(pd);
        } else {
            ov = std::to_string(f.oracle);
            pv = std::to_string(f.production);
        }
        if (f.oracle != f.production)
            ov += " *";
        stats.addRow({f.name, ov, pv});
    }
    stats.exportCsv(label_ + "_stats");

    std::string report = "oracle divergence (" +
                         std::string(pathName(path)) + ")\n";
    report += context.render();
    report += stats.render();

    if (at_access) {
        util::Table dmc_state(
            {"way", "valid", "dirty", "base", "stamp", "data"});
        for (auto &row : oracle.dmcSetState(record.addr))
            dmc_state.addRow(row);
        dmc_state.exportCsv(label_ + "_dmc_state");

        util::Table fvc_state(
            {"way", "valid", "dirty", "base", "stamp", "codes"});
        for (auto &row : oracle.fvcSetState(record.addr))
            fvc_state.addRow(row);
        fvc_state.exportCsv(label_ + "_fvc_state");

        report += "oracle DMC set state at diverging address\n";
        report += dmc_state.render();
        report += "oracle FVC set state at diverging address\n";
        report += fvc_state.render();
    }
    out.report = std::move(report);
    return out;
}

std::optional<Divergence>
DiffRunner::runSerial(const harness::PreparedTrace &trace,
                      const DiffCell &cell) const
{
    OracleDmcFvc oracle(cell.dmc, cell.fvc, trace.frequent_values,
                        cell.policy);
    trace.initial_image.forEachInteresting(
        [&oracle](Addr addr, Word value) {
            oracle.installWord(addr, value);
        });

    core::FrequentValueEncoding encoding(trace.frequent_values,
                                         cell.fvc.code_bits);
    core::DmcFvcSystem system(cell.dmc, cell.fvc,
                              std::move(encoding), cell.policy);
    harness::installInitialImage(trace, system.memoryImage());

    size_t index = 0;
    for (const sim::TraceChunk &chunk : trace.columns.chunks()) {
        const size_t n = chunk.size();
        for (size_t i = 0; i < n; ++i) {
            const auto op = static_cast<trace::Op>(chunk.op[i]);
            if (op != trace::Op::Load && op != trace::Op::Store)
                continue;
            trace::MemRecord rec{op, chunk.addr[i], chunk.value[i],
                                 chunk.icount[i]};
            system.access(rec);
            oracle.access(rec);
            if (firstDiff(oracle.stats(), oracle.fvcStats(),
                          system.stats(), system.fvcStats())) {
                return makeDivergence(Path::Serial, index, rec, cell,
                                      oracle, system.stats(),
                                      system.fvcStats());
            }
            ++index;
        }
    }
    system.flush();
    oracle.flush();
    if (firstDiff(oracle.stats(), oracle.fvcStats(), system.stats(),
                  system.fvcStats())) {
        return makeDivergence(Path::Serial, SIZE_MAX, {}, cell,
                              oracle, system.stats(),
                              system.fvcStats());
    }
    return std::nullopt;
}

std::optional<Divergence>
DiffRunner::runLane(const harness::PreparedTrace &trace,
                    const DiffCell &cell, Path path) const
{
    sim::MultiConfigSimulator msim(trace.columns,
                                   trace.initial_image,
                                   trace.frequent_values);
    // Pin the ISA level so the two lane paths stay distinct
    // regardless of FVC_SIMD: LaneScalar is always the scalar
    // level (the queue walk on every lane), Simd always the best
    // ISA this machine runs.
    sim::ReplayKernel kernel = sim::ReplayKernel::LaneScalar;
    if (path == Path::Simd) {
        switch (sim::bestLaneIsa()) {
          case sim::LaneIsa::Avx512:
            kernel = sim::ReplayKernel::LaneAvx512;
            break;
          case sim::LaneIsa::Avx2:
            kernel = sim::ReplayKernel::LaneAvx2;
            break;
          case sim::LaneIsa::Scalar:
            break;
        }
    }
    msim.forceKernel(kernel);
    size_t index = msim.addDmcFvc(cell.dmc, cell.fvc, cell.policy);
    msim.run();

    OracleDmcFvc oracle = oracleReplay(trace, cell);
    const core::FvcStats *fvc = msim.fvcStats(index);
    fvc_assert(fvc, "DMC+FVC cell must expose FvcStats");
    if (firstDiff(oracle.stats(), oracle.fvcStats(),
                  msim.stats(index), *fvc)) {
        return makeDivergence(path, SIZE_MAX, {}, cell, oracle,
                              msim.stats(index), *fvc);
    }
    return std::nullopt;
}

std::optional<Divergence>
DiffRunner::runMmapWarm(const harness::PreparedTrace &trace,
                        const DiffCell &cell) const
{
    // Round-trip through a v3 store file, then replay the zero-copy
    // mmap view through the full serial model.
    harness::TraceKey key;
    key.profile = trace.name;
    key.profile_hash = 0;
    key.accesses = trace.columns.size();
    key.seed = 0;
    key.top_k = trace.frequent_values.size();

    std::string dir =
        "/tmp/fvc_oracle_diff_" + std::to_string(::getpid());
    ::mkdir(dir.c_str(), 0755);
    std::string path = dir + "/" + label_ + "_warm.fvcs";

    auto fail = [&](const std::string &what,
                    const util::Error &err) {
        OracleDmcFvc oracle = oracleReplay(trace, cell);
        Divergence out = makeDivergence(
            Path::MmapWarm, SIZE_MAX, {}, cell, oracle,
            cache::CacheStats{}, core::FvcStats{});
        out.field = what;
        out.report = "trace store " + what + ": " + err.message +
                     "\n" + out.report;
        return out;
    };

    if (auto err = harness::saveTraceFile(path, trace, key))
        return fail("store_save_error", *err);
    auto loaded = harness::loadTraceFile(path);
    if (!loaded.ok()) {
        std::remove(path.c_str());
        return fail("store_load_error", loaded.error());
    }

    core::FrequentValueEncoding encoding(
        loaded.value().frequent_values, cell.fvc.code_bits);
    core::DmcFvcSystem system(cell.dmc, cell.fvc,
                              std::move(encoding), cell.policy);
    harness::replay(loaded.value(), system);

    std::remove(path.c_str());

    OracleDmcFvc oracle = oracleReplay(trace, cell);
    if (firstDiff(oracle.stats(), oracle.fvcStats(), system.stats(),
                  system.fvcStats())) {
        return makeDivergence(Path::MmapWarm, SIZE_MAX, {}, cell,
                              oracle, system.stats(),
                              system.fvcStats());
    }
    return std::nullopt;
}

std::optional<Divergence>
DiffRunner::runPath(const harness::PreparedTrace &trace,
                    const DiffCell &cell, Path path) const
{
    switch (path) {
      case Path::Serial: return runSerial(trace, cell);
      case Path::LaneScalar:
        return runLane(trace, cell, Path::LaneScalar);
      case Path::Simd: return runLane(trace, cell, Path::Simd);
      case Path::MmapWarm: return runMmapWarm(trace, cell);
    }
    fvc_panic("unreachable path");
}

std::optional<Divergence>
DiffRunner::run(const harness::PreparedTrace &trace,
                const DiffCell &cell) const
{
    for (Path path : allPaths()) {
        if (auto divergence = runPath(trace, cell, path))
            return divergence;
    }
    return std::nullopt;
}

} // namespace fvc::oracle
