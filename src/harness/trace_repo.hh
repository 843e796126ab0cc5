/**
 * @file
 * TraceRepository: a two-tier, memoizing store of PreparedTraces.
 *
 * Sweep-shaped benches replay one trace through many configurations;
 * before the repository each bench (and each config loop iteration
 * in some of them) regenerated an identical trace from scratch.
 *
 * Tier 1 (memory): prepareTrace() is memoized by TraceKey — the
 * profile *content* fingerprint plus (accesses, seed, top_k) — so
 * concurrent sweep jobs share one immutable trace, and generation
 * for distinct keys proceeds in parallel: the first caller of a key
 * generates while callers of other keys generate theirs, and later
 * callers of the same key block only on that key's completion.
 *
 * Tier 2 (disk, optional): with FVC_TRACE_DIR set, a memory miss
 * first consults a persistent store of format-v3 files
 * (trace/trace_store.hh). A warm hit mmap()s the file and serves
 * span-backed zero-copy columns; a cold miss generates and then
 * publishes the file atomically (temp + rename), so concurrent
 * bench processes never observe torn files and every *subsequent*
 * process skips generation entirely. FVC_TRACE_STORE picks the
 * mode: "on" (default when the dir is set), "off", or "readonly"
 * (serve hits, never write — e.g. a shared read-only trace cache).
 *
 * Memory bound: FVC_TRACE_CACHE_MB caps the repository's resident
 * *heap* footprint (megabytes; unset = unbounded).
 * Mapped traces count only their heap side (images, frequent
 * values) — the column bytes are the kernel page cache's, not
 * ours — and eviction prefers heap-resident traces over cheap
 * mmap views. Eviction only releases the repository's reference —
 * outstanding TracePtrs stay valid — and a later request for an
 * evicted key reloads or regenerates a byte-identical trace
 * (generation is a pure function of the key).
 */

#ifndef FVC_HARNESS_TRACE_REPO_HH_
#define FVC_HARNESS_TRACE_REPO_HH_

#include <atomic>
#include <cstddef>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>

#include "harness/runner.hh"
#include "util/error.hh"
#include "util/knobs.hh"

namespace fvc::harness {

/**
 * Memoization key: everything prepareTrace() depends on. The
 * profile is keyed by its content fingerprint
 * (workload::profileFingerprint), not its display name, so
 * custom-kernel or input-set profile variants that reuse a name can
 * never alias a cached trace; the name rides along for diagnostics
 * and store file naming only.
 */
struct TraceKey
{
    std::string profile;
    uint64_t profile_hash = 0;
    uint64_t accesses = 0;
    uint64_t seed = 0;
    size_t top_k = 0;

    bool operator==(const TraceKey &) const = default;
};

struct TraceKeyHash
{
    size_t operator()(const TraceKey &key) const;
};

/** Persistent-store mode, from FVC_TRACE_DIR + FVC_TRACE_STORE. */
using StoreMode = util::StoreMode;

/** The active store mode: Disabled without a store directory. */
StoreMode storeMode();

/** FVC_TRACE_DIR, or empty when unset. */
std::string traceStoreDir();

/**
 * The store state recorded in bench JSON context: "disabled" (no
 * store), "cold" (store enabled, no usable file yet), or "warm"
 * (store enabled and at least one store file present).
 * compare_bench.py refuses to compare runs whose states differ.
 */
const char *traceStoreStateName();

/** The 64-bit content key a store file is addressed by. */
uint64_t storeContentKey(const TraceKey &key);

/** Store file name for @p key: "<name>-<hex key>.fvcs". */
std::string storeFileName(const TraceKey &key);

/**
 * Serialize @p trace to a v3 store file at @p path (atomic
 * publish). @p key supplies the provenance header fields.
 */
std::optional<util::Error> saveTraceFile(const std::string &path,
                                         const PreparedTrace &trace,
                                         const TraceKey &key);

/**
 * Load a v3 store file: mmap, validate every CRC, and build a
 * PreparedTrace whose columns view the mapping zero-copy (the
 * trace's @c mapping member keeps the file mapped). Structured
 * errors on any corruption.
 */
util::Expected<PreparedTrace>
loadTraceFile(const std::string &path);

/**
 * The shared trace store. All methods are safe to call from any
 * thread; the returned traces are immutable and may be replayed
 * concurrently.
 */
class TraceRepository
{
  public:
    using TracePtr = std::shared_ptr<const PreparedTrace>;

    /**
     * The trace for (profile, accesses, seed, top_k), generating or
     * loading it on first request. Repeated lookups return the same
     * object (pointer-equal).
     */
    TracePtr get(const workload::BenchmarkProfile &profile,
                 uint64_t accesses, uint64_t seed = 1,
                 size_t top_k = 10);

    /** Number of traces cached (or in flight). */
    size_t size() const;

    /** Resident heap bytes of completed cached traces (estimate;
     * mmap-view column bytes excluded). */
    size_t residentBytes() const;

    /** Traces dropped by the FVC_TRACE_CACHE_MB bound so far. */
    uint64_t evictions() const;

    /** Traces generated from scratch by this repository. */
    uint64_t generations() const;

    /** Traces served from the persistent store (mmap warm hits). */
    uint64_t storeHits() const;

    /** Store files this repository published. */
    uint64_t storeWrites() const;

    /** Drop every cached trace (outstanding TracePtrs stay valid).
     * Counters are preserved; the persistent store is untouched. */
    void clear();

    /** The process-wide repository. */
    static TraceRepository &shared();

    /** Estimated heap footprint of one prepared trace (mmap-view
     * columns count as 0 — their bytes belong to the page cache). */
    static size_t traceBytes(const PreparedTrace &trace);

  private:
    struct Entry
    {
        std::shared_future<TracePtr> future;
        /** LRU stamp; bumped on every lookup. */
        uint64_t last_use = 0;
        /** traceBytes() of the finished trace (0 while in flight). */
        size_t bytes = 0;
        /** In-flight entries are never evicted. */
        bool ready = false;
        /** Columns are an mmap view (evicted only as a last
         * resort: dropping one frees almost nothing). */
        bool mapped = false;
    };

    /** FVC_TRACE_CACHE_MB in bytes (at most UINT64_MAX / 2^20 MB);
     * SIZE_MAX when unbounded. */
    static size_t capBytes();

    /** Evict ready LRU entries (except @p keep) until under cap,
     * preferring heap-resident entries over mmap views. */
    void enforceCapLocked(const TraceKey &keep);

    /** Produce the trace for @p key: store load or generation. */
    TracePtr produce(const workload::BenchmarkProfile &profile,
                     const TraceKey &key);

    mutable std::mutex mutex_;
    std::unordered_map<TraceKey, Entry, TraceKeyHash> traces_;
    uint64_t use_clock_ = 0;
    size_t total_bytes_ = 0;
    uint64_t evictions_ = 0;
    std::atomic<uint64_t> generations_{0};
    std::atomic<uint64_t> store_hits_{0};
    std::atomic<uint64_t> store_writes_{0};
};

/**
 * Shorthand: fetch from the process-wide repository.
 */
TraceRepository::TracePtr
sharedTrace(const workload::BenchmarkProfile &profile,
            uint64_t accesses, uint64_t seed = 1, size_t top_k = 10);

} // namespace fvc::harness

#endif // FVC_HARNESS_TRACE_REPO_HH_
