#include "util/knobs.hh"

#include <cstdlib>

#include "util/logging.hh"
#include "util/strings.hh"

namespace fvc::util {

namespace detail {

void
warnBadKnob(const char *name, const std::string &value,
            const std::string &want, const std::string &using_)
{
    fvc_warn("ignoring bad ", name, " value \"", value, "\" (want ",
             want, "); using ", using_);
}

} // namespace detail

bool
knobFlag(const char *name)
{
    const std::string text = knobText(name);
    return !text.empty() && text != "0";
}

uint64_t
knobCount(const char *name, uint64_t fallback, uint64_t min,
          uint64_t max)
{
    const std::string text = knobText(name);
    if (text.empty())
        return fallback;
    auto v = parseUint(text);
    if (v && *v >= min && *v <= max)
        return *v;
    const std::string want =
        max == UINT64_MAX
            ? "an integer >= " + std::to_string(min)
            : "an integer in " + std::to_string(min) + ".." +
                  std::to_string(max);
    detail::warnBadKnob(name, text, want,
                        fallback == UINT64_MAX
                            ? "no limit"
                            : std::to_string(fallback));
    return fallback;
}

std::string
knobText(const char *name)
{
    const char *env = std::getenv(name);
    return env ? std::string(env) : std::string();
}

std::string
tempDir()
{
    std::string dir = knobText("TMPDIR");
    while (dir.size() > 1 && dir.back() == '/')
        dir.pop_back();
    return dir.empty() ? "/tmp" : dir;
}

StoreMode
knobStoreMode(const char *name)
{
    return knobChoice<StoreMode>(name,
                                 {{"on", StoreMode::ReadWrite},
                                  {"1", StoreMode::ReadWrite},
                                  {"off", StoreMode::Disabled},
                                  {"0", StoreMode::Disabled},
                                  {"readonly", StoreMode::ReadOnly}},
                                 StoreMode::ReadWrite);
}

} // namespace fvc::util
