/**
 * @file
 * Status and error reporting helpers, modeled on gem5's logging.hh split:
 * panic() for internal invariant violations (simulator bugs) and fatal()
 * for user-caused configuration errors; warn()/inform() for status.
 */

#ifndef NOREBA_COMMON_LOGGING_H
#define NOREBA_COMMON_LOGGING_H

#include <cstdio>
#include <cstdlib>
#include <string>

namespace noreba {

/** Severity used by the message sink (see logMessage()). */
enum class LogLevel { Inform, Warn, Fatal, Panic };

/**
 * Print a formatted message with a severity prefix to stderr.
 *
 * @param level  Severity of the message.
 * @param where  "file:line" location string.
 * @param msg    Pre-formatted message body.
 */
void logMessage(LogLevel level, const char *where, const std::string &msg);

/** Format a printf-style message into a std::string. */
std::string strfmt(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

[[noreturn]] void panicImpl(const char *where, const std::string &msg);
[[noreturn]] void fatalImpl(const char *where, const std::string &msg);

} // namespace noreba

#define NOREBA_WHERE_STR2(x) #x
#define NOREBA_WHERE_STR(x) NOREBA_WHERE_STR2(x)
#define NOREBA_WHERE __FILE__ ":" NOREBA_WHERE_STR(__LINE__)

/* Concurrent fatal() calls (e.g. from pool workers) are serialized:
 * the first caller logs, flushes stdio, and exits; later callers park
 * until the process dies. For per-job failures a batched caller should
 * survive, library code throws SimError (common/error.h) instead — see
 * DESIGN.md §13 for the full error-handling contract. */

/** Abort: an internal invariant was violated (a simulator bug). */
#define panic(...) \
    ::noreba::panicImpl(NOREBA_WHERE, ::noreba::strfmt(__VA_ARGS__))

/** Exit(1): the simulation cannot continue due to a user error. */
#define fatal(...) \
    ::noreba::fatalImpl(NOREBA_WHERE, ::noreba::strfmt(__VA_ARGS__))

/** Non-fatal warning about possibly-incorrect behaviour. */
#define warn(...) \
    ::noreba::logMessage(::noreba::LogLevel::Warn, NOREBA_WHERE, \
                         ::noreba::strfmt(__VA_ARGS__))

/** Informational status message. */
#define inform(...) \
    ::noreba::logMessage(::noreba::LogLevel::Inform, NOREBA_WHERE, \
                         ::noreba::strfmt(__VA_ARGS__))

/** panic() unless the given condition holds. */
#define panic_if(cond, ...) \
    do { \
        if (cond) \
            panic(__VA_ARGS__); \
    } while (0)

/** fatal() unless the given condition holds. */
#define fatal_if(cond, ...) \
    do { \
        if (cond) \
            fatal(__VA_ARGS__); \
    } while (0)

#endif // NOREBA_COMMON_LOGGING_H
