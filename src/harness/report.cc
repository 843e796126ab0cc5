#include "harness/report.hh"

#include <cstdio>

#include "util/error.hh"
#include "util/logging.hh"
#include "util/table.hh"

namespace fvc::harness {

void
banner(const std::string &experiment_id, const std::string &title)
{
    std::string line(72, '=');
    std::printf("%s\n%s: %s\n%s\n", line.c_str(),
                experiment_id.c_str(), title.c_str(), line.c_str());
}

void
note(const std::string &text)
{
    std::printf("  note: %s\n", text.c_str());
}

void
section(const std::string &text)
{
    std::printf("\n--- %s ---\n", text.c_str());
}

void
reportSweepFailures(const std::vector<JobFailure> &failures,
                    size_t total_jobs, const std::string &what)
{
    if (util::strictMode()) {
        fvc_fatal("FVC_STRICT=1: ",
                  summarizeFailures(failures, total_jobs), " [",
                  what, "]");
    }
    std::string title = "FAILED sweep jobs — ";
    title.append(what).append(
        " (degraded output; set FVC_STRICT=1 to fail fast)");
    section(title);
    util::Table table({"job", "attempts", "error"});
    table.alignRight(0);
    table.alignRight(1);
    for (const auto &failure : failures) {
        std::string job = "#";
        job.append(std::to_string(failure.index));
        table.addRow({job, std::to_string(failure.attempts),
                      failure.message});
    }
    std::printf("%s", table.render().c_str());
}

} // namespace fvc::harness
