#include "verify/fault_injector.hh"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "util/knobs.hh"
#include "util/logging.hh"
#include "util/strings.hh"

namespace fvc::verify {

namespace {

util::Expected<unsigned>
parseKinds(const std::string &text)
{
    unsigned kinds = 0;
    size_t pos = 0;
    while (pos <= text.size()) {
        size_t bar = text.find('|', pos);
        std::string name = text.substr(
            pos, bar == std::string::npos ? std::string::npos
                                          : bar - pos);
        if (name == "value") {
            kinds |= kFaultValueFlip;
        } else if (name == "addr") {
            kinds |= kFaultAddrFlip;
        } else if (name == "op") {
            kinds |= kFaultOpMutate;
        } else if (name == "dup") {
            kinds |= kFaultDuplicate;
        } else if (name == "drop") {
            kinds |= kFaultDrop;
        } else if (name == "all") {
            kinds |= kFaultAllRecord;
        } else {
            return util::Error{util::ErrorCode::Format,
                               "unknown fault kind \"" + name + "\"",
                               "FVC_FAULT_SPEC"};
        }
        if (bar == std::string::npos)
            break;
        pos = bar + 1;
    }
    return kinds;
}

} // namespace

util::Expected<FaultSpec>
FaultSpec::parse(const std::string &text)
{
    FaultSpec spec;
    size_t pos = 0;
    while (pos < text.size()) {
        size_t comma = text.find(',', pos);
        std::string field = text.substr(
            pos, comma == std::string::npos ? std::string::npos
                                            : comma - pos);
        size_t eq = field.find('=');
        if (eq == std::string::npos || eq == 0) {
            return util::Error{util::ErrorCode::Format,
                               "expected key=value, got \"" + field +
                                   "\"",
                               "FVC_FAULT_SPEC"};
        }
        std::string key = field.substr(0, eq);
        std::string value = field.substr(eq + 1);
        if (key == "seed") {
            auto v = util::parseUint(value);
            if (!v) {
                return util::Error{util::ErrorCode::Format,
                                   "bad seed \"" + value + "\"",
                                   "FVC_FAULT_SPEC"};
            }
            spec.seed = *v;
        } else if (key == "rate") {
            char *end = nullptr;
            double r = std::strtod(value.c_str(), &end);
            if (!end || *end != '\0' || value.empty() || r < 0.0 ||
                r > 1.0) {
                return util::Error{util::ErrorCode::Format,
                                   "bad rate \"" + value +
                                       "\" (want 0..1)",
                                   "FVC_FAULT_SPEC"};
            }
            spec.rate = r;
        } else if (key == "kinds") {
            auto kinds = parseKinds(value);
            if (!kinds.ok())
                return kinds.error();
            spec.kinds = kinds.value();
        } else if (key == "sweep_job" || key == "kill_cell" ||
                   key == "hang_cell" || key == "corrupt_spill") {
            auto v = util::parseUint(value);
            if (!v) {
                return util::Error{util::ErrorCode::Format,
                                   "bad " + key + " \"" + value +
                                       "\"",
                                   "FVC_FAULT_SPEC"};
            }
            if (key == "sweep_job")
                spec.sweep_job = *v;
            else if (key == "kill_cell")
                spec.kill_cell = *v;
            else if (key == "hang_cell")
                spec.hang_cell = *v;
            else
                spec.corrupt_spill = *v;
        } else if (key == "sticky") {
            if (value != "0" && value != "1") {
                return util::Error{util::ErrorCode::Format,
                                   "bad sticky \"" + value +
                                       "\" (want 0 or 1)",
                                   "FVC_FAULT_SPEC"};
            }
            spec.sticky = value == "1";
        } else {
            return util::Error{util::ErrorCode::Format,
                               "unknown key \"" + key + "\"",
                               "FVC_FAULT_SPEC"};
        }
        if (comma == std::string::npos)
            break;
        pos = comma + 1;
    }
    return spec;
}

std::optional<FaultSpec>
FaultSpec::fromEnv()
{
    const std::string env = util::knobText("FVC_FAULT_SPEC");
    if (env.empty())
        return std::nullopt;
    auto spec = parse(env);
    if (!spec.ok())
        fvc_fatal("FVC_FAULT_SPEC: ", spec.error().describe());
    return spec.value();
}

std::string
FaultSpec::describe() const
{
    char buf[48];
    std::snprintf(buf, sizeof(buf), "seed=%llu,rate=%g",
                  static_cast<unsigned long long>(seed), rate);
    // Emit kinds as the names parse() accepts, so a described spec
    // round-trips. An (unparsable) empty mask omits the field.
    std::string out = buf;
    if (kinds == kFaultAllRecord) {
        out += ",kinds=all";
    } else if (kinds != 0) {
        out += ",kinds=";
        static const struct
        {
            unsigned bit;
            const char *name;
        } names[] = {{kFaultValueFlip, "value"},
                     {kFaultAddrFlip, "addr"},
                     {kFaultOpMutate, "op"},
                     {kFaultDuplicate, "dup"},
                     {kFaultDrop, "drop"}};
        bool first = true;
        for (const auto &entry : names) {
            if (kinds & entry.bit) {
                out += (first ? "" : "|");
                out += entry.name;
                first = false;
            }
        }
    }
    if (sweep_job)
        out += ",sweep_job=" + std::to_string(*sweep_job);
    if (kill_cell)
        out += ",kill_cell=" + std::to_string(*kill_cell);
    if (hang_cell)
        out += ",hang_cell=" + std::to_string(*hang_cell);
    if (corrupt_spill)
        out += ",corrupt_spill=" + std::to_string(*corrupt_spill);
    if (sticky)
        out += ",sticky=1";
    return out;
}

FaultInjector::FaultInjector(const FaultSpec &spec)
    : spec_(spec), rng_(spec.seed)
{
}

unsigned
FaultInjector::pickKind()
{
    std::vector<unsigned> set;
    for (unsigned bit = 0; bit < 5; ++bit) {
        if (spec_.kinds & (1u << bit))
            set.push_back(1u << bit);
    }
    if (set.empty())
        return 0;
    return set[rng_.below(set.size())];
}

uint64_t
FaultInjector::mutateRecords(std::vector<trace::MemRecord> &records)
{
    if (spec_.rate <= 0.0 || spec_.kinds == 0)
        return 0;
    std::vector<trace::MemRecord> out;
    out.reserve(records.size());
    uint64_t faults = 0;
    for (const auto &rec : records) {
        if (!rng_.chance(spec_.rate)) {
            out.push_back(rec);
            continue;
        }
        trace::MemRecord bad = rec;
        switch (pickKind()) {
          case kFaultValueFlip:
            bad.value ^= 1u << rng_.below(32);
            out.push_back(bad);
            break;
          case kFaultAddrFlip:
            bad.addr ^= 1u << rng_.below(32);
            out.push_back(bad);
            break;
          case kFaultOpMutate:
            bad.op = static_cast<trace::Op>(rng_.below(256));
            out.push_back(bad);
            break;
          case kFaultDuplicate:
            out.push_back(rec);
            out.push_back(rec);
            break;
          case kFaultDrop:
            break;
        }
        ++faults;
    }
    records = std::move(out);
    return faults;
}

uint64_t
FaultInjector::corruptBytes(uint8_t *data, size_t len)
{
    if (len == 0)
        return 0;
    uint64_t flips = 0;
    if (spec_.rate > 0.0) {
        for (size_t i = 0; i < len; ++i) {
            if (rng_.chance(spec_.rate)) {
                data[i] ^= 1u << rng_.below(8);
                ++flips;
            }
        }
    }
    if (flips == 0) {
        // "Corrupt this buffer" must corrupt even at rate=0.
        data[rng_.below(len)] ^= 1u << rng_.below(8);
        flips = 1;
    }
    return flips;
}

util::Expected<uint64_t>
FaultInjector::corruptFile(const std::string &path,
                           size_t skip_prefix)
{
    std::FILE *file = std::fopen(path.c_str(), "rb+");
    if (!file) {
        return util::Error{util::ErrorCode::Io,
                           "cannot open file for corruption", path};
    }
    std::fseek(file, 0, SEEK_END);
    long size = std::ftell(file);
    if (size < 0 || static_cast<size_t>(size) <= skip_prefix) {
        std::fclose(file);
        return util::Error{util::ErrorCode::Invalid,
                           "file smaller than the skip prefix",
                           path};
    }
    std::vector<uint8_t> body(static_cast<size_t>(size) -
                              skip_prefix);
    std::fseek(file, static_cast<long>(skip_prefix), SEEK_SET);
    if (std::fread(body.data(), 1, body.size(), file) !=
        body.size()) {
        std::fclose(file);
        return util::Error{util::ErrorCode::Io, "short read", path};
    }
    uint64_t flips = corruptBytes(body.data(), body.size());
    std::fseek(file, static_cast<long>(skip_prefix), SEEK_SET);
    if (std::fwrite(body.data(), 1, body.size(), file) !=
        body.size()) {
        std::fclose(file);
        return util::Error{util::ErrorCode::Io, "short write", path};
    }
    std::fclose(file);
    return flips;
}

bool
FaultInjector::corruptMemoryWord(memmodel::FunctionalMemory &memory)
{
    std::vector<trace::Addr> addrs;
    addrs.reserve(memory.interestingWords());
    memory.forEachInteresting(
        [&](trace::Addr addr, trace::Word) { addrs.push_back(addr); });
    if (addrs.empty())
        return false;
    // Page visit order is unspecified; sort for seed-determinism.
    std::sort(addrs.begin(), addrs.end());
    trace::Addr addr = addrs[rng_.below(addrs.size())];
    memory.write(addr,
                 memory.read(addr) ^ (1u << rng_.below(32)));
    return true;
}

uint64_t
FaultInjector::discardFvcState(core::DmcFvcSystem &system)
{
    uint64_t dirty = 0;
    // Dropping the flush() result loses every dirty frequent-coded
    // word: the memory image keeps its stale values.
    for (const auto &entry : system.fvc().flush()) {
        if (entry.dirty)
            ++dirty;
    }
    return dirty;
}

} // namespace fvc::verify
