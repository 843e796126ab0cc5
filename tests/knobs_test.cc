/**
 * @file
 * Tests for the FVC_* knob readers (util/knobs.hh): for each reader,
 * unset, empty, every accepted value, the range ends, one past the
 * top, trailing garbage, a leading space or sign, and a value past
 * 2^64. A bad value costs exactly one warning and gives the
 * fallback. The knob name is made up; tests/knob_check.py skips this
 * file when it matches reader calls against EXPERIMENTS.md.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "util/knobs.hh"
#include "util/logging.hh"

#include "env_guard.hh"

namespace fu = fvc::util;
using fvc::test::ScopedEnv;

namespace {

constexpr const char *kKnob = "FVC_KNOBS_TEST";
constexpr const char *kOverflow = "18446744073709551616"; // 2^64

/** Set the knob to @p value (nullptr unsets it), then check what
 * @p read returns and how many warnings it emits. */
template <typename Read, typename T>
void
expectRead(const char *value, Read read, T want, uint64_t warnings)
{
    ScopedEnv env(kKnob, value);
    const uint64_t before = fu::warnCount();
    EXPECT_EQ(read(), want) << (value ? value : "(unset)");
    EXPECT_EQ(fu::warnCount() - before, warnings)
        << (value ? value : "(unset)");
}

/** Everything @p read prints to stderr for @p value. */
template <typename Read>
std::string
stderrOf(const char *value, Read read)
{
    ScopedEnv env(kKnob, value);
    ::testing::internal::CaptureStderr();
    read();
    return ::testing::internal::GetCapturedStderr();
}

enum class Mode { Auto, On, Off };

Mode
readMode()
{
    return fu::knobChoice<Mode>(
        kKnob, {{"auto", Mode::Auto}, {"on", Mode::On}, {"off", Mode::Off}},
        Mode::Auto);
}

} // namespace

TEST(KnobFlagTest, ZeroAndEmptyAreOffAnythingElseIsOn)
{
    auto read = [] { return fu::knobFlag(kKnob); };
    for (const char *off : {static_cast<const char *>(nullptr), "", "0"})
        expectRead(off, read, false, 0);
    for (const char *on : {"1", "yes", "4x", " 4", "+4", kOverflow})
        expectRead(on, read, true, 0);
}

TEST(KnobChoiceTest, AcceptsExactSpellingsOnly)
{
    expectRead(nullptr, readMode, Mode::Auto, 0);
    expectRead("", readMode, Mode::Auto, 0);
    expectRead("auto", readMode, Mode::Auto, 0);
    expectRead("on", readMode, Mode::On, 0);
    expectRead("off", readMode, Mode::Off, 0);
    for (const char *bad : {"ON", "on ", "4x", " 4", "+4", kOverflow})
        expectRead(bad, readMode, Mode::Auto, 1);
    EXPECT_NE(stderrOf("banana", readMode)
                  .find("ignoring bad FVC_KNOBS_TEST value \"banana\" "
                        "(want auto, on, off); using auto"),
              std::string::npos);
}

TEST(KnobCountTest, ChecksTheRangeBeforeAnyNarrowing)
{
    auto read = [] { return fu::knobCount(kKnob, 7, 2, 1000); };
    for (const char *unset : {static_cast<const char *>(nullptr), ""})
        expectRead(unset, read, uint64_t{7}, 0);
    expectRead("2", read, uint64_t{2}, 0);
    expectRead("1000", read, uint64_t{1000}, 0);
    for (const char *bad : {"1", "1001", "4x", " 4", "+4", "-4", kOverflow})
        expectRead(bad, read, uint64_t{7}, 1);

    // A MiB knob: at most 2^44 - 1, so scaling by 2^20 cannot wrap;
    // the out-of-range fallback is the "no limit" sentinel.
    auto mib = [] {
        return fu::knobCount(kKnob, UINT64_MAX, 0, UINT64_MAX >> 20);
    };
    expectRead("0", mib, uint64_t{0}, 0);
    expectRead("17592186044415", mib, UINT64_MAX >> 20, 0);
    expectRead("17592186044416", mib, UINT64_MAX, 1);
    EXPECT_NE(stderrOf("17592186044416", mib)
                  .find("(want an integer in 0..17592186044415); "
                        "using no limit"),
              std::string::npos);

    // The whole u64 range, when the caller allows it.
    auto wide = [] { return fu::knobCount(kKnob, 3, 1, UINT64_MAX); };
    expectRead("18446744073709551615", wide, UINT64_MAX, 0);
    expectRead(kOverflow, wide, uint64_t{3}, 1);
}

TEST(KnobTextTest, ReturnsTheRawValue)
{
    auto read = [] { return fu::knobText(kKnob); };
    expectRead(nullptr, read, std::string(), 0);
    for (const char *value : {"", "/some/dir", "4x", " 4", "+4", kOverflow})
        expectRead(value, read, std::string(value), 0);
}

TEST(KnobStoreModeTest, SharedValueList)
{
    using fu::StoreMode;
    auto read = [] { return fu::knobStoreMode(kKnob); };
    for (const char *rw : {static_cast<const char *>(nullptr), "", "on", "1"})
        expectRead(rw, read, StoreMode::ReadWrite, 0);
    expectRead("off", read, StoreMode::Disabled, 0);
    expectRead("0", read, StoreMode::Disabled, 0);
    expectRead("readonly", read, StoreMode::ReadOnly, 0);
    for (const char *bad : {"2", "read-only", "4x", " 4", "+4", kOverflow})
        expectRead(bad, read, StoreMode::ReadWrite, 1);
}

TEST(TempDirTest, StripsTrailingSlash)
{
    const std::pair<const char *, const char *> cases[] = {
        {nullptr, "/tmp"},
        {"", "/tmp"},
        {"/var/tmp/", "/var/tmp"},
        {"/var/tmp", "/var/tmp"}};
    for (const auto &[tmpdir, want] : cases) {
        ScopedEnv env("TMPDIR", tmpdir);
        EXPECT_EQ(fu::tempDir(), want);
    }
}
