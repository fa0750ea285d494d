/**
 * @file
 * Logging and error-reporting helpers.
 *
 * Follows the gem5 convention: panic() for internal invariant
 * violations (simulator bugs), fatal() for user/configuration errors,
 * warn() for status messages that do not stop execution.
 */

#ifndef AREGION_SUPPORT_LOGGING_HH
#define AREGION_SUPPORT_LOGGING_HH

#include <cstdlib>
#include <sstream>
#include <string>

namespace aregion {

/** Internal sink used by the logging macros; not called directly. */
[[noreturn]] void panicImpl(const char *file, int line,
                            const std::string &msg);
[[noreturn]] void fatalImpl(const char *file, int line,
                            const std::string &msg);
void warnImpl(const std::string &msg);

/** Controls whether warn() prints to stderr (tests mute it). */
void setLogQuiet(bool quiet);

namespace detail {

template <typename... Args>
std::string
formatParts(Args &&...args)
{
    std::ostringstream os;
    (os << ... << args);
    return os.str();
}

} // namespace detail

} // namespace aregion

/** Abort: something happened that must never happen (a library bug). */
#define AREGION_PANIC(...)                                                  \
    ::aregion::panicImpl(__FILE__, __LINE__,                                \
                         ::aregion::detail::formatParts(__VA_ARGS__))

/** Exit: the user asked for something unsatisfiable (bad config). */
#define AREGION_FATAL(...)                                                  \
    ::aregion::fatalImpl(__FILE__, __LINE__,                                \
                         ::aregion::detail::formatParts(__VA_ARGS__))

#define AREGION_WARN(...)                                                   \
    ::aregion::warnImpl(::aregion::detail::formatParts(__VA_ARGS__))

/** Assert-with-message for invariants that are cheap enough to keep on. */
#define AREGION_ASSERT(cond, ...)                                           \
    do {                                                                    \
        if (!(cond)) {                                                      \
            AREGION_PANIC("assertion failed: ", #cond, ": ",                \
                          ::aregion::detail::formatParts(__VA_ARGS__));     \
        }                                                                   \
    } while (0)

#endif // AREGION_SUPPORT_LOGGING_HH
