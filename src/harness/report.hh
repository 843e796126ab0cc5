/**
 * @file
 * Report helpers: consistent experiment banners, paper-vs-measured
 * annotations, and graceful-degradation rendering for the bench
 * binaries.
 */

#ifndef FVC_HARNESS_REPORT_HH_
#define FVC_HARNESS_REPORT_HH_

#include <optional>
#include <string>
#include <vector>

#include "harness/parallel.hh"
#include "util/logging.hh"

namespace fvc::harness {

/** Print a titled banner for one experiment. */
void banner(const std::string &experiment_id,
            const std::string &title);

/** Print a short note (paper expectation, caveat, ...). */
void note(const std::string &text);

/** Print a section heading within an experiment. */
void section(const std::string &text);

/**
 * Print an indexed summary table of failed sweep jobs. Under
 * FVC_STRICT=1 this is fvc_fatal (nonzero exit) instead: strict
 * runs fail fast, degrade runs render what completed.
 */
void reportSweepFailures(const std::vector<JobFailure> &failures,
                         size_t total_jobs,
                         const std::string &what);

/** Placeholder rendered for a failed sweep cell. */
inline const char *
failedCell()
{
    return "FAILED";
}

/**
 * Run a sweep in degrade mode: failed jobs come back as nullopt
 * and are summarized via reportSweepFailures() (fatal in strict
 * mode); completed cells render normally.
 */
template <typename R>
std::vector<std::optional<R>>
runDegraded(SweepRunner<R> &sweep, const std::string &what)
{
    size_t total = sweep.pending();
    SweepOutcome<R> outcome = sweep.runChecked();
    if (!outcome.failures.empty())
        reportSweepFailures(outcome.failures, total, what);
    return std::move(outcome.results);
}

} // namespace fvc::harness

#endif // FVC_HARNESS_REPORT_HH_
