/**
 * @file
 * The one reader of the FVC_* environment knobs.
 *
 * Every knob accessor in the library (jobCount(), storeMode(),
 * leaseMs(), ...) is a single call of one of the readers below, one
 * per kind of value; no other code calls getenv on an FVC_* name
 * (tests/knob_check.py enforces it, and EXPERIMENTS.md's knob table
 * lists every name). The readers consult the environment on every
 * call, with no cache: tests toggle knobs in-process, and fabric
 * workers inherit them at fork. No knob is read on a per-record or
 * per-block path.
 *
 * An unset or empty knob means its default, silently. A set value
 * must parse exactly; anything else is one warning in one format,
 *
 *   ignoring bad FVC_X value "v" (want ...); using D
 *
 * and the default. The exceptions are the knobs whose owners read
 * knobText() and fail hard instead (a requested fault, mutation,
 * budget or seed must never be dropped silently).
 */

#ifndef FVC_UTIL_KNOBS_HH_
#define FVC_UTIL_KNOBS_HH_

#include <cstdint>
#include <initializer_list>
#include <string>

namespace fvc::util {

/** A flag: unset, empty or "0" is off; any other value is on. */
bool knobFlag(const char *name);

/**
 * A count: strict util::parseUint, then a range check before any
 * narrowing or scaling by the caller. Unset or empty gives
 * @p fallback; a value that does not parse or lies outside
 * [@p min, @p max] warns and gives @p fallback. The fallback may lie
 * outside the range, as a "not set" sentinel; UINT64_MAX reads
 * "no limit" in the warning.
 */
uint64_t knobCount(const char *name, uint64_t fallback, uint64_t min,
                   uint64_t max);

/** The raw value, or empty when unset. */
std::string knobText(const char *name);

/** TMPDIR without a trailing '/', or "/tmp" when unset or empty. */
std::string tempDir();

/** One accepted spelling of a choice knob and what it selects. */
template <typename T>
struct KnobValue
{
    const char *text;
    T value;
};

namespace detail {

/** Emit the one bad-value warning. */
void warnBadKnob(const char *name, const std::string &value,
                 const std::string &want, const std::string &using_);

} // namespace detail

/**
 * A choice: the value must equal one of @p values' spellings
 * exactly. Unset or empty gives @p fallback; anything else warns
 * and gives @p fallback.
 */
template <typename T>
T
knobChoice(const char *name, std::initializer_list<KnobValue<T>> values,
           T fallback)
{
    const std::string text = knobText(name);
    if (text.empty())
        return fallback;
    for (const auto &v : values) {
        if (text == v.text)
            return v.value;
    }
    std::string want;
    std::string using_;
    for (const auto &v : values) {
        want += (want.empty() ? "" : ", ") + std::string(v.text);
        if (using_.empty() && v.value == fallback)
            using_ = v.text;
    }
    detail::warnBadKnob(name, text, want, using_);
    return fallback;
}

/** What a store knob allows. */
enum class StoreMode {
    Disabled,
    ReadWrite,
    ReadOnly,
};

/**
 * The choice FVC_TRACE_STORE and FVC_RESULT_CACHE share: "on" or
 * "1" (the default), "off" or "0", or "readonly".
 */
StoreMode knobStoreMode(const char *name);

} // namespace fvc::util

#endif // FVC_UTIL_KNOBS_HH_
