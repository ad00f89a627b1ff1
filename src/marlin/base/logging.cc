#include "marlin/base/logging.hh"

#include <cstdarg>
#include <cstdio>
#include <cstdlib>

#include "marlin/base/instant.hh"
#include "marlin/base/string_utils.hh"

namespace marlin
{

namespace
{

LogLevel global_level = LogLevel::Inform;

void
emit(const char *tag, const char *fmt, va_list args)
{
    std::string msg = vcsprintf(fmt, args);
    if (global_level >= LogLevel::Debug) {
        // At Debug verbosity every line carries seconds since the
        // shared process epoch and the compact thread tag — the same
        // timebase and tids the trace exporter stamps on spans, so
        // log lines correlate with trace slices directly.
        std::fprintf(stderr, "[%12.6f T%02u] %s: %s\n",
                     static_cast<double>(base::nowNsSinceStart()) /
                         1e9,
                     base::currentThreadTag(), tag, msg.c_str());
    } else {
        std::fprintf(stderr, "%s: %s\n", tag, msg.c_str());
    }
}

} // namespace

void
setLogLevel(LogLevel level)
{
    global_level = level;
}

LogLevel
logLevel()
{
    return global_level;
}

void
panic(const char *fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    emit("panic", fmt, args);
    va_end(args);
    std::abort();
}

void
fatal(const char *fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    emit("fatal", fmt, args);
    va_end(args);
    std::exit(1);
}

void
warn(const char *fmt, ...)
{
    if (global_level < LogLevel::Warn)
        return;
    va_list args;
    va_start(args, fmt);
    emit("warn", fmt, args);
    va_end(args);
}

void
inform(const char *fmt, ...)
{
    if (global_level < LogLevel::Inform)
        return;
    va_list args;
    va_start(args, fmt);
    emit("info", fmt, args);
    va_end(args);
}

void
debugLog(const char *fmt, ...)
{
    if (global_level < LogLevel::Debug)
        return;
    va_list args;
    va_start(args, fmt);
    emit("debug", fmt, args);
    va_end(args);
}

LogLevel
parseLogLevel(const std::string &name)
{
    if (name == "silent")
        return LogLevel::Silent;
    if (name == "fatal")
        return LogLevel::Fatal;
    if (name == "warn")
        return LogLevel::Warn;
    if (name == "inform")
        return LogLevel::Inform;
    if (name == "debug")
        return LogLevel::Debug;
    fatal("unknown log level '%s' (expected silent, fatal, warn, "
          "inform or debug)",
          name.c_str());
}

} // namespace marlin
