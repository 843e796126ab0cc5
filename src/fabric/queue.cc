#include "fabric/queue.hh"

#include <atomic>
#include <cerrno>
#include <cstring>
#include <ctime>

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include "util/logging.hh"

namespace fvc::fabric {

namespace {

constexpr uint32_t kQueueMagic = 0x46564351; // "FVCQ"
constexpr uint32_t kQueueVersion = 1;

std::atomic<uint64_t> &
atomicRef(uint64_t &word)
{
    static_assert(sizeof(std::atomic<uint64_t>) == sizeof(uint64_t));
    // x86-64 (and every platform this builds on) gives lock-free
    // 8-byte atomics with plain object representation, so viewing
    // the mmap'd word as std::atomic is sound in practice; the
    // static_assert catches layouts where it would not be.
    return *reinterpret_cast<std::atomic<uint64_t> *>(&word);
}

} // namespace

uint64_t
packCtl(SlotCtl ctl)
{
    return static_cast<uint64_t>(ctl.state) |
           (static_cast<uint64_t>(ctl.attempts) << 8) |
           (static_cast<uint64_t>(ctl.seq) << 16) |
           (static_cast<uint64_t>(ctl.pid) << 32);
}

SlotCtl
unpackCtl(uint64_t word)
{
    SlotCtl ctl;
    ctl.state = static_cast<CellState>(word & 0xff);
    ctl.attempts = static_cast<uint8_t>((word >> 8) & 0xff);
    ctl.seq = static_cast<uint16_t>((word >> 16) & 0xffff);
    ctl.pid = static_cast<uint32_t>(word >> 32);
    return ctl;
}

uint64_t
monotonicMs()
{
    struct timespec ts;
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return static_cast<uint64_t>(ts.tv_sec) * 1000u +
           static_cast<uint64_t>(ts.tv_nsec) / 1000000u;
}

struct SharedQueue::Header
{
    uint32_t magic;
    uint32_t version;
    uint32_t cells;
    uint32_t coordinator_pid;
    uint32_t retry_budget;
    uint32_t shutdown; // atomic flag
    uint64_t lease_ms;
    uint64_t run_id;
    uint8_t pad[24];

    // Pads to one 64-byte line so slot 0 starts line-aligned.
    static void sizeCheck();
};

struct SharedQueue::Slot
{
    /** Packed SlotCtl; every transition is one CAS here. */
    uint64_t ctl;
    /** Lease deadline, monotonic ms (owner-written, racy-read). */
    uint64_t deadline_ms;
    /** Locality key (immutable after create). */
    uint64_t profile_hash;
    /** Durable cell identity (immutable after create). */
    uint64_t fingerprint;
    uint8_t pad[32];
};

void
SharedQueue::Header::sizeCheck()
{
    static_assert(sizeof(Header) == 64);
    static_assert(sizeof(Slot) == 64);
}

SharedQueue::Header *
SharedQueue::header() const
{
    return static_cast<Header *>(base_);
}

SharedQueue::Slot *
SharedQueue::slot(size_t i) const
{
    fvc_assert(i < header()->cells, "queue slot out of range");
    return reinterpret_cast<Slot *>(static_cast<uint8_t *>(base_) +
                                    sizeof(Header)) +
           i;
}

util::Expected<SharedQueue>
SharedQueue::create(const std::string &path,
                    const std::vector<CellSeed> &cells,
                    unsigned retry_budget, uint64_t lease_ms,
                    uint64_t run_id)
{
    const size_t bytes =
        sizeof(Header) + cells.size() * sizeof(Slot);
    int fd = ::open(path.c_str(), O_RDWR | O_CREAT | O_TRUNC, 0644);
    if (fd < 0) {
        return util::Error{util::ErrorCode::Io,
                           std::string("open failed: ") +
                               std::strerror(errno),
                           path};
    }
    if (::ftruncate(fd, static_cast<off_t>(bytes)) != 0) {
        int err = errno;
        ::close(fd);
        return util::Error{util::ErrorCode::Io,
                           std::string("ftruncate failed: ") +
                               std::strerror(err),
                           path};
    }
    void *base = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                        MAP_SHARED, fd, 0);
    ::close(fd);
    if (base == MAP_FAILED) {
        return util::Error{util::ErrorCode::Io,
                           std::string("mmap failed: ") +
                               std::strerror(errno),
                           path};
    }

    SharedQueue queue;
    queue.base_ = base;
    queue.bytes_ = bytes;
    queue.path_ = path;

    Header *h = queue.header();
    h->magic = kQueueMagic;
    h->version = kQueueVersion;
    h->cells = static_cast<uint32_t>(cells.size());
    h->coordinator_pid = static_cast<uint32_t>(::getpid());
    // attempts is a u8; clamp so the packed counter cannot wrap.
    h->retry_budget = retry_budget < 250 ? retry_budget : 250;
    h->shutdown = 0;
    h->lease_ms = lease_ms;
    h->run_id = run_id;

    for (size_t i = 0; i < cells.size(); ++i) {
        Slot *s = queue.slot(i);
        s->ctl = packCtl(SlotCtl{});
        s->deadline_ms = 0;
        s->profile_hash = cells[i].profile_hash;
        s->fingerprint = cells[i].fingerprint;
    }
    return queue;
}

SharedQueue::~SharedQueue()
{
    if (base_)
        ::munmap(base_, bytes_);
}

SharedQueue::SharedQueue(SharedQueue &&other) noexcept
    : base_(other.base_), bytes_(other.bytes_),
      path_(std::move(other.path_))
{
    other.base_ = nullptr;
    other.bytes_ = 0;
}

SharedQueue &
SharedQueue::operator=(SharedQueue &&other) noexcept
{
    if (this != &other) {
        if (base_)
            ::munmap(base_, bytes_);
        base_ = other.base_;
        bytes_ = other.bytes_;
        path_ = std::move(other.path_);
        other.base_ = nullptr;
        other.bytes_ = 0;
    }
    return *this;
}

size_t
SharedQueue::cellCount() const
{
    return header()->cells;
}

unsigned
SharedQueue::retryBudget() const
{
    return header()->retry_budget;
}

uint64_t
SharedQueue::leaseMs() const
{
    return header()->lease_ms;
}

uint64_t
SharedQueue::runId() const
{
    return header()->run_id;
}

SlotCtl
SharedQueue::load(size_t i) const
{
    return unpackCtl(
        atomicRef(slot(i)->ctl).load(std::memory_order_acquire));
}

uint64_t
SharedQueue::profileHash(size_t i) const
{
    return slot(i)->profile_hash;
}

uint64_t
SharedQueue::fingerprint(size_t i) const
{
    return slot(i)->fingerprint;
}

uint64_t
SharedQueue::deadline(size_t i) const
{
    return atomicRef(slot(i)->deadline_ms)
        .load(std::memory_order_acquire);
}

bool
SharedQueue::tryClaim(size_t i, uint32_t pid)
{
    Slot *s = slot(i);
    uint64_t observed =
        atomicRef(s->ctl).load(std::memory_order_acquire);
    SlotCtl ctl = unpackCtl(observed);
    if (ctl.state != CellState::Pending)
        return false;
    SlotCtl next = ctl;
    next.state = CellState::Leased;
    next.attempts = ctl.attempts + 1;
    next.seq = ctl.seq + 1;
    next.pid = pid;
    // Stamp the deadline before publishing the lease so no observer
    // can see a Leased slot with a stale (already expired) deadline
    // and steal it back instantly.
    atomicRef(s->deadline_ms)
        .store(monotonicMs() + header()->lease_ms,
               std::memory_order_release);
    return atomicRef(s->ctl).compare_exchange_strong(
        observed, packCtl(next), std::memory_order_acq_rel);
}

bool
SharedQueue::trySteal(size_t i, uint32_t pid, uint64_t now_ms)
{
    Slot *s = slot(i);
    uint64_t observed =
        atomicRef(s->ctl).load(std::memory_order_acquire);
    SlotCtl ctl = unpackCtl(observed);
    if (ctl.state != CellState::Leased)
        return false;
    if (atomicRef(s->deadline_ms).load(std::memory_order_acquire) >
        now_ms) {
        return false; // lease is live
    }
    if (ctl.attempts >= header()->retry_budget)
        return false; // coordinator will mark Failed
    SlotCtl next = ctl;
    next.attempts = ctl.attempts + 1;
    next.seq = ctl.seq + 1;
    next.pid = pid;
    atomicRef(s->deadline_ms)
        .store(now_ms + header()->lease_ms,
               std::memory_order_release);
    return atomicRef(s->ctl).compare_exchange_strong(
        observed, packCtl(next), std::memory_order_acq_rel);
}

void
SharedQueue::renewLease(size_t i, uint32_t pid,
                        uint64_t deadline_ms)
{
    Slot *s = slot(i);
    SlotCtl ctl = unpackCtl(
        atomicRef(s->ctl).load(std::memory_order_acquire));
    if (ctl.state != CellState::Leased || ctl.pid != pid)
        return; // stolen or reclaimed; nothing to renew
    atomicRef(s->deadline_ms)
        .store(deadline_ms, std::memory_order_release);
}

bool
SharedQueue::markDone(size_t i, uint32_t pid)
{
    Slot *s = slot(i);
    uint64_t observed =
        atomicRef(s->ctl).load(std::memory_order_acquire);
    SlotCtl ctl = unpackCtl(observed);
    if (ctl.state != CellState::Leased || ctl.pid != pid)
        return false;
    SlotCtl next = ctl;
    next.state = CellState::Done;
    next.seq = ctl.seq + 1;
    return atomicRef(s->ctl).compare_exchange_strong(
        observed, packCtl(next), std::memory_order_acq_rel);
}

namespace {

/** Shared -> Pending-or-Failed transition used by every requeue
 * path; the budget decides which. */
SlotCtl
requeued(SlotCtl ctl, unsigned budget)
{
    SlotCtl next = ctl;
    next.seq = ctl.seq + 1;
    next.pid = 0;
    if (ctl.attempts >= budget) {
        next.state = CellState::Failed;
    } else {
        next.state = CellState::Pending;
    }
    return next;
}

} // namespace

std::optional<CellState>
SharedQueue::releaseFailed(size_t i, uint32_t pid)
{
    Slot *s = slot(i);
    uint64_t observed =
        atomicRef(s->ctl).load(std::memory_order_acquire);
    SlotCtl ctl = unpackCtl(observed);
    if (ctl.state != CellState::Leased || ctl.pid != pid)
        return std::nullopt;
    SlotCtl next = requeued(ctl, header()->retry_budget);
    if (!atomicRef(s->ctl).compare_exchange_strong(
            observed, packCtl(next), std::memory_order_acq_rel)) {
        return std::nullopt;
    }
    return next.state;
}

std::optional<CellState>
SharedQueue::reclaimExpired(size_t i, uint64_t now_ms)
{
    Slot *s = slot(i);
    uint64_t observed =
        atomicRef(s->ctl).load(std::memory_order_acquire);
    SlotCtl ctl = unpackCtl(observed);
    if (ctl.state != CellState::Leased)
        return std::nullopt;
    if (atomicRef(s->deadline_ms).load(std::memory_order_acquire) >
        now_ms) {
        return std::nullopt;
    }
    SlotCtl next = requeued(ctl, header()->retry_budget);
    if (!atomicRef(s->ctl).compare_exchange_strong(
            observed, packCtl(next), std::memory_order_acq_rel)) {
        return std::nullopt;
    }
    return next.state;
}

std::optional<CellState>
SharedQueue::demoteUnpublished(size_t i)
{
    Slot *s = slot(i);
    uint64_t observed =
        atomicRef(s->ctl).load(std::memory_order_acquire);
    SlotCtl ctl = unpackCtl(observed);
    if (ctl.state != CellState::Done)
        return std::nullopt;
    SlotCtl next = requeued(ctl, header()->retry_budget);
    if (!atomicRef(s->ctl).compare_exchange_strong(
            observed, packCtl(next), std::memory_order_acq_rel)) {
        return std::nullopt;
    }
    return next.state;
}

size_t
SharedQueue::doneCount() const
{
    size_t n = 0;
    for (size_t i = 0; i < cellCount(); ++i) {
        if (load(i).state == CellState::Done)
            ++n;
    }
    return n;
}

size_t
SharedQueue::failedCount() const
{
    size_t n = 0;
    for (size_t i = 0; i < cellCount(); ++i) {
        if (load(i).state == CellState::Failed)
            ++n;
    }
    return n;
}

bool
SharedQueue::complete() const
{
    for (size_t i = 0; i < cellCount(); ++i) {
        CellState state = load(i).state;
        if (state != CellState::Done && state != CellState::Failed)
            return false;
    }
    return true;
}

void
SharedQueue::requestShutdown()
{
    reinterpret_cast<std::atomic<uint32_t> *>(&header()->shutdown)
        ->store(1, std::memory_order_release);
}

bool
SharedQueue::shutdownRequested() const
{
    return reinterpret_cast<const std::atomic<uint32_t> *>(
               &header()->shutdown)
               ->load(std::memory_order_acquire) != 0;
}

void
SharedQueue::unlinkFile()
{
    if (!path_.empty())
        ::unlink(path_.c_str());
}

} // namespace fvc::fabric
