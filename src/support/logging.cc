#include "support/logging.hh"

#include <cstdio>
#include <stdexcept>

namespace aregion {

namespace {
bool quietFlag = false;
} // namespace

void
setLogQuiet(bool quiet)
{
    quietFlag = quiet;
}

void
panicImpl(const char *file, int line, const std::string &msg)
{
    // Throw instead of abort() so tests can assert on invariant
    // violations; uncaught, the effect is the same as abort().
    std::ostringstream os;
    os << "panic: " << msg << " @ " << file << ":" << line;
    throw std::logic_error(os.str());
}

void
fatalImpl(const char *file, int line, const std::string &msg)
{
    std::fprintf(stderr, "fatal: %s @ %s:%d\n", msg.c_str(), file, line);
    std::exit(1);
}

void
warnImpl(const std::string &msg)
{
    if (!quietFlag)
        std::fprintf(stderr, "warn: %s\n", msg.c_str());
}

} // namespace aregion
