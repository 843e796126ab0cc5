/**
 * @file
 * Tier-1 fuzz smoke: a fixed budget of seeded differential cells,
 * deterministic under CTest (the seed comes from the test's
 * ENVIRONMENT property). FVC_FUZZ_BUDGET raises the cell count for
 * long soak runs (see EXPERIMENTS.md); FVC_FUZZ_SEED re-seeds a run
 * to explore fresh cells or to replay a soak failure.
 */

#include <gtest/gtest.h>

#include "oracle/fuzz.hh"
#include "util/knobs.hh"
#include "util/strings.hh"

namespace {

constexpr uint64_t kDefaultBudget = 200;
constexpr uint64_t kDefaultSeed = 20260805;

TEST(FuzzSmoke, BudgetedSeededCells)
{
    uint64_t seed = kDefaultSeed;
    if (const std::string raw = fvc::util::knobText("FVC_FUZZ_SEED");
        !raw.empty()) {
        auto parsed = fvc::util::parseUint(raw);
        ASSERT_TRUE(parsed.has_value())
            << "FVC_FUZZ_SEED must be a decimal integer, got '"
            << raw << "'";
        seed = *parsed;
    }

    const uint64_t budget =
        fvc::oracle::fuzz::fuzzBudget(kDefaultBudget);
    fvc::oracle::fuzz::CellGen gen(seed);
    fvc::oracle::DiffRunner runner("fuzz_smoke");
    for (uint64_t i = 0; i < budget; ++i) {
        fvc::oracle::fuzz::FuzzCell cell = gen.next();
        auto finding = fvc::oracle::fuzz::runCell(cell, runner);
        if (finding) {
            FAIL() << "cell " << i << "/" << budget << " ("
                   << cell.describe() << ") diverged:\n"
                   << finding->repro;
        }
    }
}

} // namespace
