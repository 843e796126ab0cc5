#include "util/error.hh"

#include "util/knobs.hh"

namespace fvc::util {

const char *
errorCodeName(ErrorCode code)
{
    switch (code) {
      case ErrorCode::Io:
        return "io";
      case ErrorCode::Corrupt:
        return "corrupt";
      case ErrorCode::Format:
        return "format";
      case ErrorCode::Truncated:
        return "truncated";
      case ErrorCode::Timeout:
        return "timeout";
      case ErrorCode::Invalid:
        return "invalid";
    }
    return "?";
}

std::string
Error::describe() const
{
    std::string out = errorCodeName(code);
    out += ": ";
    out += message;
    if (!context.empty())
        out += " [" + context + "]";
    return out;
}

bool
strictMode()
{
    return knobFlag("FVC_STRICT");
}

} // namespace fvc::util
