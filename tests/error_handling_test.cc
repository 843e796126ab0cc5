/**
 * @file
 * Error-handling tests: invalid configurations must fail fast with
 * fatal diagnostics (gem5-style fatal() exits with code 1; panic()
 * aborts).
 */

#include <gtest/gtest.h>

#include "cache/config.hh"
#include "core/dmc_fvc_system.hh"

namespace fc = fvc::cache;
namespace co = fvc::core;

TEST(ErrorHandlingDeathTest, NonPowerOfTwoCacheSize)
{
    fc::CacheConfig cfg;
    cfg.size_bytes = 1000;
    cfg.line_bytes = 32;
    EXPECT_EXIT(cfg.validate(), ::testing::ExitedWithCode(1),
                "power of two");
}

TEST(ErrorHandlingDeathTest, LineSmallerThanWord)
{
    fc::CacheConfig cfg;
    cfg.size_bytes = 1024;
    cfg.line_bytes = 2;
    EXPECT_EXIT(cfg.validate(), ::testing::ExitedWithCode(1),
                "line size");
}

TEST(ErrorHandlingDeathTest, BadAssociativity)
{
    fc::CacheConfig cfg;
    cfg.size_bytes = 1024;
    cfg.line_bytes = 32;
    cfg.assoc = 3;
    EXPECT_EXIT(cfg.validate(), ::testing::ExitedWithCode(1),
                "associativity");
}

TEST(ErrorHandlingDeathTest, BadFvcCodeWidth)
{
    co::FvcConfig cfg;
    cfg.entries = 64;
    cfg.line_bytes = 32;
    cfg.code_bits = 9;
    EXPECT_EXIT(cfg.validate(), ::testing::ExitedWithCode(1),
                "code width");
}

TEST(ErrorHandlingDeathTest, MismatchedFvcLineSize)
{
    fc::CacheConfig dmc;
    dmc.size_bytes = 1024;
    dmc.line_bytes = 32;
    co::FvcConfig fvc;
    fvc.entries = 64;
    fvc.line_bytes = 16; // != DMC
    fvc.code_bits = 3;
    EXPECT_DEATH(
        {
            co::DmcFvcSystem sys(
                dmc, fvc,
                co::FrequentValueEncoding({0}, 3));
        },
        "line size must match");
}
