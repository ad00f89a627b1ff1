/**
 * @file
 * gem5-style status and error reporting.
 *
 * panic()  — an internal invariant was violated (a MARLin bug);
 *            aborts so a debugger/core dump can capture state.
 * fatal()  — the simulation cannot continue due to a user error
 *            (bad configuration, invalid arguments); exits cleanly.
 * warn()   — something works but not as well as it should.
 * inform() — normal operating status messages.
 */

#ifndef MARLIN_BASE_LOGGING_HH
#define MARLIN_BASE_LOGGING_HH

#include <string>

#include "marlin/base/compiler.hh"

namespace marlin
{

/** Verbosity control: messages below this level are suppressed. */
enum class LogLevel { Silent = 0, Fatal, Warn, Inform, Debug };

/** Set the global log threshold (default: Inform). */
void setLogLevel(LogLevel level);

/** Current global log threshold. */
LogLevel logLevel();

/**
 * Parse a --log-level value ("silent", "fatal", "warn", "inform",
 * "debug"); fatal on anything else.
 */
LogLevel parseLogLevel(const std::string &name);

[[noreturn]] void panic(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

[[noreturn]] void fatal(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

void warn(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

void inform(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

void debugLog(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

/**
 * Check an internal invariant; panics with location info on failure.
 * Active in all build types (unlike assert).
 */
#define MARLIN_ASSERT(cond, msg)                                          \
    do {                                                                  \
        if (MARLIN_UNLIKELY(!(cond))) {                                   \
            ::marlin::panic("assertion '%s' failed at %s:%d: %s", #cond,  \
                            __FILE__, __LINE__, msg);                     \
        }                                                                 \
    } while (0)

} // namespace marlin

#endif // MARLIN_BASE_LOGGING_HH
