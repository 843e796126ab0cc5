#include "harness/parallel.hh"

#include <atomic>

#include "util/knobs.hh"
#include "verify/fault_injector.hh"

namespace fvc::harness {

unsigned
jobCount()
{
    const unsigned hw = std::thread::hardware_concurrency();
    return static_cast<unsigned>(
        util::knobCount("FVC_JOBS", hw > 0 ? hw : 1, 1, 1024));
}

ThreadPool::ThreadPool(unsigned threads)
{
    if (threads == 0)
        threads = jobCount();
    workers_.reserve(threads);
    for (unsigned i = 0; i < threads; ++i) {
        workers_.emplace_back(
            [this](std::stop_token token) { workerLoop(token); });
    }
}

ThreadPool::~ThreadPool()
{
    waitIdle();
    for (auto &worker : workers_)
        worker.request_stop();
    work_cv_.notify_all();
    // ~jthread joins.
}

void
ThreadPool::workerLoop(std::stop_token token)
{
    for (;;) {
        std::function<void()> task;
        {
            std::unique_lock lock(mutex_);
            work_cv_.wait(lock, token,
                          [this] { return !queue_.empty(); });
            if (queue_.empty())
                return; // stop requested and nothing left
            task = std::move(queue_.front());
            queue_.pop_front();
            ++running_;
        }
        task();
        {
            std::lock_guard lock(mutex_);
            --running_;
            if (queue_.empty() && running_ == 0)
                idle_cv_.notify_all();
        }
    }
}

void
ThreadPool::submit(std::function<void()> task)
{
    {
        std::lock_guard lock(mutex_);
        queue_.push_back(std::move(task));
    }
    work_cv_.notify_one();
}

void
ThreadPool::waitIdle()
{
    std::unique_lock lock(mutex_);
    idle_cv_.wait(lock,
                  [this] { return queue_.empty() && running_ == 0; });
}

ThreadPool &
ThreadPool::shared()
{
    static ThreadPool pool;
    return pool;
}

std::string
JobFailure::describe() const
{
    std::string out = "#" + std::to_string(index);
    if (attempts > 1)
        out += " (" + std::to_string(attempts) + " attempts)";
    out += ": " + message;
    return out;
}

std::string
summarizeFailures(const std::vector<JobFailure> &failures,
                  size_t total_jobs)
{
    std::string out = std::to_string(failures.size()) + "/" +
                      std::to_string(total_jobs) +
                      " sweep jobs failed: ";
    for (size_t i = 0; i < failures.size(); ++i) {
        if (i)
            out += "; ";
        out += failures[i].describe();
    }
    return out;
}

namespace detail {

size_t
nextGlobalSweepIndex()
{
    static std::atomic<size_t> counter{0};
    return counter.fetch_add(1, std::memory_order_relaxed);
}

std::optional<uint64_t>
injectedSweepFailure()
{
    auto spec = verify::FaultSpec::fromEnv();
    if (!spec)
        return std::nullopt;
    return spec->sweep_job;
}

} // namespace detail

} // namespace fvc::harness
