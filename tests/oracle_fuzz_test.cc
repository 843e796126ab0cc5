/**
 * @file
 * The shrinker validated against itself: each of the five planted
 * protocol mutations (FVC_ORACLE_MUTATE) must be detected by the
 * differential fuzzer and shrunk to a counterexample of at most 64
 * records. A clean oracle must find nothing over the same cells.
 */

#include <cstdlib>
#include <gtest/gtest.h>

#include "oracle/fuzz.hh"

#include "env_guard.hh"

namespace {

using namespace fvc;
using test::ScopedEnv;

TEST(OracleMutationTest, EnvParsing)
{
    {
        ScopedEnv env("FVC_ORACLE_MUTATE", nullptr);
        EXPECT_EQ(oracle::mutationFromEnv(),
                  oracle::Mutation::None);
    }
    {
        ScopedEnv env("FVC_ORACLE_MUTATE", "");
        EXPECT_EQ(oracle::mutationFromEnv(),
                  oracle::Mutation::None);
    }
    const std::pair<const char *, oracle::Mutation> cases[] = {
        {"skip-read-merge", oracle::Mutation::SkipReadMerge},
        {"wrong-reserved-code",
         oracle::Mutation::WrongReservedCode},
        {"stale-victim-scan", oracle::Mutation::StaleVictimScan},
        {"skip-write-allocate",
         oracle::Mutation::SkipWriteAllocate},
        {"no-write-dirty", oracle::Mutation::NoWriteDirty},
    };
    for (const auto &[name, expected] : cases) {
        ScopedEnv env("FVC_ORACLE_MUTATE", name);
        EXPECT_EQ(oracle::mutationFromEnv(), expected) << name;
        EXPECT_STREQ(oracle::mutationName(expected), name);
    }
}

TEST(OracleFuzzTest, CleanOracleFindsNothing)
{
    ScopedEnv env("FVC_ORACLE_MUTATE", nullptr);
    oracle::fuzz::CellGen gen(7);
    oracle::DiffRunner runner("fuzz_clean");
    for (int i = 0; i < 10; ++i) {
        oracle::fuzz::FuzzCell cell = gen.next();
        auto finding = oracle::fuzz::runCell(cell, runner);
        if (finding) {
            ADD_FAILURE() << "clean cell " << cell.describe()
                          << " diverged:\n"
                          << finding->repro;
        }
    }
}

TEST(OracleFuzzTest, FindsAndShrinksEveryMutation)
{
    const char *mutations[] = {
        "skip-read-merge",     "wrong-reserved-code",
        "stale-victim-scan",   "skip-write-allocate",
        "no-write-dirty",
    };
    oracle::DiffRunner runner("fuzz_mutation");
    uint64_t seed = 0x5eed0000;
    for (const char *name : mutations) {
        SCOPED_TRACE(name);
        ScopedEnv env("FVC_ORACLE_MUTATE", name);
        oracle::fuzz::CellGen gen(seed++);
        std::optional<oracle::fuzz::Finding> found;
        int tried = 0;
        for (; tried < 200 && !found; ++tried)
            found = oracle::fuzz::runCell(gen.next(), runner);
        ASSERT_TRUE(found.has_value())
            << "fuzzer missed mutation " << name << " over "
            << tried << " cells";
        EXPECT_GE(found->shrunk.size(), 1u);
        EXPECT_LE(found->shrunk.size(), 64u)
            << "shrink left " << found->shrunk.size()
            << " records:\n"
            << found->repro;

        // The shrunk record list must itself be a replayable
        // counterexample on the reported path.
        harness::PreparedTrace base =
            oracle::fuzz::buildTrace(found->cell);
        harness::PreparedTrace repro =
            oracle::fuzz::subsetTrace(base, found->shrunk);
        EXPECT_TRUE(runner.runPath(repro, found->cell.cell,
                                   found->path)
                        .has_value())
            << "shrunk repro no longer diverges";
    }
}

} // namespace
