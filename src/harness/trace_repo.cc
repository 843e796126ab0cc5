#include "harness/trace_repo.hh"

#include <filesystem>
#include <functional>
#include <limits>
#include <utility>

#include "memmodel/functional_memory.hh"
#include "trace/trace_store.hh"
#include "util/knobs.hh"
#include "util/logging.hh"
#include "util/strings.hh"
#include "workload/fingerprint.hh"

namespace fvc::harness {

namespace {

/** SplitMix64 finalizer: the store's key/hash mixing step. */
uint64_t
mix64(uint64_t z)
{
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

/** True iff a warm store is mandatory (FVC_TRACE_EXPECT_WARM):
 * any trace generation is then a hard failure. Lets the bench
 * acceptance gate assert "the second run generated nothing". */
bool
expectWarm()
{
    return util::knobFlag("FVC_TRACE_EXPECT_WARM");
}

} // namespace

size_t
TraceKeyHash::operator()(const TraceKey &key) const
{
    size_t h = std::hash<std::string>{}(key.profile);
    auto mix = [&h](uint64_t v) {
        h ^= std::hash<uint64_t>{}(v) + 0x9e3779b97f4a7c15ull +
             (h << 6) + (h >> 2);
    };
    mix(key.profile_hash);
    mix(key.accesses);
    mix(key.seed);
    mix(key.top_k);
    return h;
}

StoreMode
storeMode()
{
    if (traceStoreDir().empty())
        return StoreMode::Disabled;
    return util::knobStoreMode("FVC_TRACE_STORE");
}

std::string
traceStoreDir()
{
    return util::knobText("FVC_TRACE_DIR");
}

const char *
traceStoreStateName()
{
    if (storeMode() == StoreMode::Disabled)
        return "disabled";
    std::error_code ec;
    std::filesystem::directory_iterator it(traceStoreDir(), ec);
    if (!ec) {
        for (const auto &entry : it) {
            if (entry.path().extension() ==
                trace::kStoreExtension) {
                return "warm";
            }
        }
    }
    return "cold";
}

uint64_t
storeContentKey(const TraceKey &key)
{
    uint64_t h = mix64(key.profile_hash);
    h = mix64(h ^ key.accesses);
    h = mix64(h ^ key.seed);
    h = mix64(h ^ key.top_k);
    // A constant 1 where a generation shard count once was: it keeps
    // every key, store file name and cell fingerprint on disk valid.
    h = mix64(h ^ 1);
    h = mix64(h ^ workload::kGeneratorVersion);
    return h;
}

std::string
storeFileName(const TraceKey &key)
{
    std::string name;
    for (char c : key.profile) {
        const bool keep = (c >= 'a' && c <= 'z') ||
                          (c >= 'A' && c <= 'Z') ||
                          (c >= '0' && c <= '9') || c == '.' ||
                          c == '_';
        name.push_back(keep ? c : '_');
    }
    return name + "-" + util::hex64(storeContentKey(key)) +
           trace::kStoreExtension;
}

std::optional<util::Error>
saveTraceFile(const std::string &path, const PreparedTrace &trace,
              const TraceKey &key)
{
    std::vector<trace::StoreChunkView> chunks;
    chunks.reserve(trace.columns.chunks().size());
    for (const auto &chunk : trace.columns.chunks()) {
        trace::StoreChunkView view;
        view.icount = chunk.icount.data();
        view.addr = chunk.addr.data();
        view.value = chunk.value.data();
        view.op = chunk.op.data();
        view.records = static_cast<uint32_t>(chunk.size());
        chunks.push_back(view);
    }

    trace::StoreMeta meta;
    meta.name = trace.name;
    meta.instruction_count = trace.instructions;
    meta.content_key = storeContentKey(key);
    meta.profile_hash = key.profile_hash;
    meta.accesses = key.accesses;
    meta.seed = key.seed;
    meta.top_k = static_cast<uint32_t>(key.top_k);
    meta.generator_version = workload::kGeneratorVersion;
    meta.chunk_records = sim::kChunkRecords;

    const std::vector<uint8_t> initial =
        trace.initial_image.serialize();
    const std::vector<uint8_t> final_image =
        trace.final_image.serialize();
    return trace::writeStore(path, meta, chunks,
                             trace.frequent_values, initial,
                             final_image);
}

util::Expected<PreparedTrace>
loadTraceFile(const std::string &path)
{
    auto opened = trace::MappedStore::open(path);
    if (!opened)
        return opened.error();
    std::shared_ptr<const trace::MappedStore> store =
        opened.value();
    const trace::StoreHeader &header = store->header();

    if (header.chunk_records != sim::kChunkRecords) {
        return util::Error{util::ErrorCode::Format,
                           "store chunk geometry does not match "
                           "this build",
                           path};
    }

    PreparedTrace out;
    out.name = header.name;
    out.instructions = header.instruction_count;
    out.frequent_values.assign(store->frequentValues().begin(),
                               store->frequentValues().end());

    auto initial = memmodel::FunctionalMemory::deserialize(
        store->initialImage().data(),
        store->initialImage().size());
    if (!initial) {
        util::Error err = initial.error();
        err.context = path;
        return err;
    }
    auto final_image = memmodel::FunctionalMemory::deserialize(
        store->finalImage().data(), store->finalImage().size());
    if (!final_image) {
        util::Error err = final_image.error();
        err.context = path;
        return err;
    }
    out.initial_image = std::move(initial.value());
    out.final_image = std::move(final_image.value());

    for (const auto &chunk : store->chunks()) {
        out.columns.appendView(chunk.addr, chunk.value, chunk.op,
                               chunk.icount, chunk.records);
    }
    out.mapping = std::move(store);
    return out;
}

size_t
TraceRepository::capBytes()
{
    const uint64_t mb = util::knobCount("FVC_TRACE_CACHE_MB",
                                        UINT64_MAX, 0,
                                        UINT64_MAX >> 20);
    return mb == UINT64_MAX ? std::numeric_limits<size_t>::max()
                            : static_cast<size_t>(mb << 20);
}

size_t
TraceRepository::traceBytes(const PreparedTrace &trace)
{
    // memoryBytes() reports owned column storage only: a mapped
    // trace's columns live in the kernel page cache, shared across
    // processes and reclaimable, so they do not count against the
    // repository's heap cap.
    size_t bytes =
        trace.columns.memoryBytes() +
        trace.frequent_values.capacity() * sizeof(trace::Word);
    bytes += (trace.initial_image.pageCount() +
              trace.final_image.pageCount()) *
             sizeof(memmodel::Page);
    return bytes;
}

void
TraceRepository::enforceCapLocked(const TraceKey &keep)
{
    const size_t cap = capBytes();
    while (total_bytes_ > cap) {
        auto victim = traces_.end();
        // Prefer heap-resident victims: evicting an mmap view frees
        // almost nothing yet forfeits the zero-copy warm hit.
        for (bool allow_mapped : {false, true}) {
            for (auto it = traces_.begin(); it != traces_.end();
                 ++it) {
                if (!it->second.ready || it->first == keep)
                    continue;
                if (it->second.mapped && !allow_mapped)
                    continue;
                if (victim == traces_.end() ||
                    it->second.last_use <
                        victim->second.last_use) {
                    victim = it;
                }
            }
            if (victim != traces_.end())
                break;
        }
        // Nothing evictable (all in flight, or only the trace that
        // just landed remains): an over-cap single trace stays
        // resident — the cap bounds the cache, not one workload.
        if (victim == traces_.end())
            break;
        total_bytes_ -= victim->second.bytes;
        ++evictions_;
        traces_.erase(victim);
    }
}

TraceRepository::TracePtr
TraceRepository::produce(const workload::BenchmarkProfile &profile,
                         const TraceKey &key)
{
    const StoreMode mode = storeMode();
    std::string path;
    if (mode != StoreMode::Disabled) {
        path = (std::filesystem::path(traceStoreDir()) /
                storeFileName(key))
                   .string();
        std::error_code ec;
        if (std::filesystem::exists(path, ec)) {
            auto loaded = loadTraceFile(path);
            if (loaded.ok() &&
                loaded.value().mapping->header().content_key ==
                    storeContentKey(key)) {
                store_hits_.fetch_add(1);
                return std::make_shared<const PreparedTrace>(
                    std::move(loaded.value()));
            }
            // A bad store file is a cache miss, not a failure: warn
            // and regenerate (ReadWrite mode then heals the file).
            fvc_warn("trace store file unusable, regenerating: ",
                     loaded.ok()
                         ? "provenance mismatch [" + path + "]"
                         : loaded.error().describe());
        }
    }

    if (expectWarm()) {
        fvc_fatal("FVC_TRACE_EXPECT_WARM is set but trace '",
                  key.profile, "' (accesses=", key.accesses,
                  ", seed=", key.seed,
                  ") was not served from the store");
    }
    generations_.fetch_add(1);
    auto trace = std::make_shared<const PreparedTrace>(
        prepareTrace(profile, key.accesses, key.seed, key.top_k));

    if (mode == StoreMode::ReadWrite) {
        std::error_code ec;
        std::filesystem::create_directories(traceStoreDir(), ec);
        if (auto err = saveTraceFile(path, *trace, key)) {
            fvc_warn("trace store write failed: ",
                     err->describe());
        } else {
            store_writes_.fetch_add(1);
        }
    }
    return trace;
}

TraceRepository::TracePtr
TraceRepository::get(const workload::BenchmarkProfile &profile,
                     uint64_t accesses, uint64_t seed, size_t top_k)
{
    TraceKey key{profile.name, workload::profileFingerprint(profile),
                 accesses, seed, top_k};

    std::promise<TracePtr> promise;
    std::shared_future<TracePtr> future;
    bool producer = false;
    {
        std::lock_guard lock(mutex_);
        auto it = traces_.find(key);
        if (it != traces_.end()) {
            it->second.last_use = ++use_clock_;
            future = it->second.future;
        } else {
            future = promise.get_future().share();
            Entry entry;
            entry.future = future;
            entry.last_use = ++use_clock_;
            traces_.emplace(key, std::move(entry));
            producer = true;
        }
    }

    if (!producer)
        return future.get();

    // Produce outside the lock so other keys proceed in parallel.
    try {
        TracePtr trace = produce(profile, key);
        const size_t bytes = traceBytes(*trace);
        const bool mapped = trace->mapped();
        promise.set_value(std::move(trace));
        std::lock_guard lock(mutex_);
        auto it = traces_.find(key);
        // clear() may have raced the generation; only account
        // entries still in the table.
        if (it != traces_.end()) {
            it->second.ready = true;
            it->second.bytes = bytes;
            it->second.mapped = mapped;
            total_bytes_ += bytes;
            enforceCapLocked(key);
        }
    } catch (...) {
        promise.set_exception(std::current_exception());
        // Forget the failed entry so a later call can retry.
        std::lock_guard lock(mutex_);
        traces_.erase(key);
        throw;
    }
    return future.get();
}

size_t
TraceRepository::size() const
{
    std::lock_guard lock(mutex_);
    return traces_.size();
}

size_t
TraceRepository::residentBytes() const
{
    std::lock_guard lock(mutex_);
    return total_bytes_;
}

uint64_t
TraceRepository::evictions() const
{
    std::lock_guard lock(mutex_);
    return evictions_;
}

uint64_t
TraceRepository::generations() const
{
    return generations_.load();
}

uint64_t
TraceRepository::storeHits() const
{
    return store_hits_.load();
}

uint64_t
TraceRepository::storeWrites() const
{
    return store_writes_.load();
}

void
TraceRepository::clear()
{
    std::lock_guard lock(mutex_);
    traces_.clear();
    total_bytes_ = 0;
}

TraceRepository &
TraceRepository::shared()
{
    static TraceRepository repo;
    return repo;
}

TraceRepository::TracePtr
sharedTrace(const workload::BenchmarkProfile &profile,
            uint64_t accesses, uint64_t seed, size_t top_k)
{
    return TraceRepository::shared().get(profile, accesses, seed,
                                         top_k);
}

} // namespace fvc::harness
