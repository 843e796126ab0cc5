/**
 * @file
 * Structured error values and the Expected<T> result type.
 *
 * fvc_fatal() is the right tool when a bench binary hits an
 * unrecoverable user error, but library code that parses external
 * input (trace files, env-var specs) must be able to *report*
 * corruption to its caller instead of killing the process: the sweep
 * harness degrades gracefully around a bad input, and tests assert
 * on the exact failure. Error carries a machine-checkable code plus
 * a human-readable message; Expected<T> is the minimal
 * value-or-Error sum type used by those decode paths.
 */

#ifndef FVC_UTIL_ERROR_HH_
#define FVC_UTIL_ERROR_HH_

#include <stdexcept>
#include <string>
#include <utility>
#include <variant>

#include "util/logging.hh"

namespace fvc::util {

/** Broad failure class, for programmatic handling. */
enum class ErrorCode {
    /** The OS refused an IO operation (open, read, write). */
    Io,
    /** Input bytes fail an integrity check (CRC, bad op byte). */
    Corrupt,
    /** Input is well-formed bytes but an unknown/bad format
     * (wrong magic, unsupported version, unparsable spec). */
    Format,
    /** Input ended before the advertised amount of data. */
    Truncated,
    /** A bounded wait elapsed (a daemon reply). */
    Timeout,
    /** A value is outside its documented domain. */
    Invalid,
};

/** Name of an error code, e.g. "corrupt". */
const char *errorCodeName(ErrorCode code);

/** A structured failure: code + message + optional subject. */
struct Error
{
    ErrorCode code = ErrorCode::Invalid;
    /** What went wrong, human-readable. */
    std::string message;
    /** What it happened to (a path, an env var name); may be empty. */
    std::string context;

    /** "corrupt: chunk 3 CRC mismatch [trace.fvcs]" */
    std::string describe() const;
};

/**
 * A value of type T or an Error. Deliberately tiny (the stdlib's
 * std::expected is C++23): implicit construction from either
 * alternative, value() panics when holding an error so misuse fails
 * loudly in tests rather than silently propagating garbage.
 */
template <typename T>
class Expected
{
  public:
    Expected(T value) : store_(std::move(value)) {}
    Expected(Error error) : store_(std::move(error)) {}

    bool ok() const { return std::holds_alternative<T>(store_); }
    explicit operator bool() const { return ok(); }

    T &
    value()
    {
        fvc_assert(ok(), "Expected::value() on error: ",
                   error().describe());
        return std::get<T>(store_);
    }

    const T &
    value() const
    {
        fvc_assert(ok(), "Expected::value() on error: ",
                   error().describe());
        return std::get<T>(store_);
    }

    const Error &
    error() const
    {
        fvc_assert(!ok(), "Expected::error() on value");
        return std::get<Error>(store_);
    }

    T
    valueOr(T fallback) const
    {
        return ok() ? std::get<T>(store_) : std::move(fallback);
    }

  private:
    std::variant<T, Error> store_;
};

/**
 * True iff the FVC_STRICT flag is on: harness code then fails fast
 * (nonzero exit) on conditions it would otherwise degrade around
 * (failed sweep jobs, unwritable CSV dir).
 */
bool strictMode();

} // namespace fvc::util

#endif // FVC_UTIL_ERROR_HH_
