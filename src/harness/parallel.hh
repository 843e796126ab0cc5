/**
 * @file
 * Parallel sweep engine: a work-queue thread pool plus a SweepRunner
 * that fans independent (trace, system-factory) jobs across workers
 * and hands the results back in deterministic submission order.
 *
 * Every paper figure is a sweep over (trace x config); replay() takes
 * a const PreparedTrace and each CacheSystem owns its memory image,
 * so jobs share nothing but the immutable trace and parallelize
 * embarrassingly. Thread-safety contract (see DESIGN.md "Performance
 * & parallel execution"): a PreparedTrace is immutable after
 * construction, each job builds its own CacheSystem, and results are
 * merged on the thread that calls SweepRunner::runChecked().
 *
 * Failure handling (DESIGN.md "Failure handling & integrity
 * contract"): one throwing job must not cost the whole figure.
 * runChecked() runs each job once, captures every job's failure and
 * returns partial results, which benches render through
 * runDegraded() (harness/report.hh). A thread cannot be killed, so
 * this backend has no retry or time budget: re-queueing a crashed
 * or wedged cell is the process fabric's job (fabric/fabric.hh,
 * FVC_RETRIES and FVC_JOB_TIMEOUT_MS).
 */

#ifndef FVC_HARNESS_PARALLEL_HH_
#define FVC_HARNESS_PARALLEL_HH_

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace fvc::harness {

/**
 * Worker count for parallel sweeps: FVC_JOBS (1..1024), otherwise
 * hardware_concurrency(). FVC_JOBS=1 forces serial execution.
 */
unsigned jobCount();

/**
 * A fixed-size pool of std::jthread workers draining one FIFO work
 * queue. No work stealing: determinism comes from jobs being
 * independent, not from scheduling order.
 */
class ThreadPool
{
  public:
    /** @param threads worker count; 0 means jobCount(). */
    explicit ThreadPool(unsigned threads = 0);

    /** Joins the workers; pending tasks are still drained. */
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    unsigned threadCount() const
    {
        return static_cast<unsigned>(workers_.size());
    }

    /** Enqueue one task. Safe to call from any thread. */
    void submit(std::function<void()> task);

    /** Block until the queue is empty and no task is running. */
    void waitIdle();

    /**
     * The process-wide pool used by SweepRunner by default. Sized
     * by jobCount() at first use.
     */
    static ThreadPool &shared();

  private:
    void workerLoop(std::stop_token token);

    std::mutex mutex_;
    std::condition_variable_any work_cv_;
    std::condition_variable idle_cv_;
    std::deque<std::function<void()>> queue_;
    size_t running_ = 0;
    std::vector<std::jthread> workers_;
};

/** One failed sweep job, identified by submission index. */
struct JobFailure
{
    /** Submission index within this SweepRunner batch. */
    size_t index = 0;
    /** what() of the job's exception, or the fabric's reason. */
    std::string message;
    /** Attempts made: always 1 on the thread backend; the fabric's
     * attempt count for a cell that exhausted FVC_RETRIES, or 0 for
     * a cell no worker claimed. */
    unsigned attempts = 1;

    /** "#3 (2 attempts): out of memory" */
    std::string describe() const;
};

/** One line per failure, e.g. "2/56 sweep jobs failed: ...". */
std::string summarizeFailures(
    const std::vector<JobFailure> &failures, size_t total_jobs);

/**
 * Everything a checked sweep produced: one slot per submitted job
 * (nullopt = that job failed) plus the failure list, ordered by
 * index. failures is empty iff every slot is engaged.
 */
template <typename R>
struct SweepOutcome
{
    std::vector<std::optional<R>> results;
    std::vector<JobFailure> failures;

    bool ok() const { return failures.empty(); }
};

namespace detail {

/** Process-wide submission counter for FVC_FAULT_SPEC sweep_job. */
size_t nextGlobalSweepIndex();

/** The sweep_job index of FVC_FAULT_SPEC, if any (read per call). */
std::optional<uint64_t> injectedSweepFailure();

/** Run one job. On success @p slot is engaged and nullopt
 * returned; otherwise the failure. */
template <typename R>
std::optional<JobFailure>
runJob(const std::function<R()> &job, size_t index,
       std::optional<R> &slot)
{
    try {
        slot.emplace(job());
        return std::nullopt;
    } catch (const std::exception &e) {
        return JobFailure{index, e.what()};
    } catch (...) {
        return JobFailure{index, "unknown exception"};
    }
}

} // namespace detail

/**
 * Collects a batch of independent jobs and runs them on a pool.
 * Results come back in submission order regardless of worker count
 * or completion order, so FVC_JOBS=1 and FVC_JOBS=N produce
 * bit-identical sweep tables.
 *
 * Usage:
 * @code
 *   SweepRunner<Row> sweep;
 *   for (const auto &config : grid)
 *       sweep.submit([&, config] { return simulate(config); });
 *   // One std::optional<Row> per job, nullopt where it failed.
 *   for (const auto &row : runDegraded(sweep, "grid"))
 *       print(row);
 * @endcode
 */
template <typename R>
class SweepRunner
{
  public:
    explicit SweepRunner(ThreadPool &pool = ThreadPool::shared())
        : pool_(pool)
    {
    }

    /** Queue one job; returns its index in the result vector. */
    size_t
    submit(std::function<R()> job)
    {
        jobs_.push_back(std::move(job));
        return jobs_.size() - 1;
    }

    size_t pending() const { return jobs_.size(); }

    /**
     * Execute every submitted job once, capturing failures instead
     * of throwing; a job matching FVC_FAULT_SPEC's sweep_job index
     * fails by injection. With a single-threaded pool the jobs run
     * inline, in order, on the calling thread. The runner is empty
     * afterwards and can be reused.
     */
    SweepOutcome<R>
    runChecked()
    {
        std::vector<std::function<R()>> jobs = std::move(jobs_);
        jobs_.clear();

        // Deterministic (submission-ordered) bookkeeping: global
        // indices for fault injection are assigned here, never on
        // workers.
        const auto inject = detail::injectedSweepFailure();
        for (size_t i = 0; i < jobs.size(); ++i) {
            size_t global = detail::nextGlobalSweepIndex();
            if (inject && *inject == global) {
                jobs[i] = [global]() -> R {
                    throw std::runtime_error(
                        "fault injector: forced failure of sweep "
                        "job #" +
                        std::to_string(global) +
                        " (FVC_FAULT_SPEC sweep_job)");
                };
            }
        }

        SweepOutcome<R> outcome;
        outcome.results.resize(jobs.size());
        std::vector<std::optional<JobFailure>> failed(jobs.size());

        auto runOne = [&](size_t i) {
            failed[i] = detail::runJob(jobs[i], i, outcome.results[i]);
        };

        if (pool_.threadCount() <= 1 || jobs.size() <= 1) {
            for (size_t i = 0; i < jobs.size(); ++i)
                runOne(i);
        } else {
            std::mutex done_mutex;
            std::condition_variable done_cv;
            size_t remaining = jobs.size();
            for (size_t i = 0; i < jobs.size(); ++i) {
                pool_.submit([&, i] {
                    runOne(i);
                    std::lock_guard lock(done_mutex);
                    if (--remaining == 0)
                        done_cv.notify_all();
                });
            }
            std::unique_lock lock(done_mutex);
            done_cv.wait(lock, [&] { return remaining == 0; });
        }

        for (auto &failure : failed) {
            if (failure)
                outcome.failures.push_back(std::move(*failure));
        }
        return outcome;
    }

  private:
    ThreadPool &pool_;
    std::vector<std::function<R()>> jobs_;
};

} // namespace fvc::harness

#endif // FVC_HARNESS_PARALLEL_HH_
