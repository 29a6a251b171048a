#include "common/log.hh"

#include <cctype>
#include <cstdlib>
#include <iostream>
#include <mutex>

namespace ccsim {

namespace {

std::atomic<bool> quietMode{false};

// -1 = not yet resolved from the environment.
std::atomic<int> levelOverride{-1};

// Serializes stderr writes so logs from sweep workers stay line-atomic.
std::mutex &
logMutex()
{
    static std::mutex m;
    return m;
}

const char *
levelTag(LogLevel lvl)
{
    switch (lvl) {
      case LogLevel::Error:
        return "error";
      case LogLevel::Warn:
        return "warn";
      case LogLevel::Info:
        return "info";
      case LogLevel::Debug:
        return "debug";
    }
    return "info";
}

LogLevel
envLogLevel()
{
    const char *env = std::getenv("CCSIM_LOG_LEVEL");
    if (!env || !*env)
        return LogLevel::Info;
    return parseLogLevel(env);
}

} // namespace

LogLevel
parseLogLevel(const std::string &s)
{
    std::string lower;
    lower.reserve(s.size());
    for (char c : s)
        lower.push_back(char(std::tolower(static_cast<unsigned char>(c))));
    if (lower == "error" || lower == "0")
        return LogLevel::Error;
    if (lower == "warn" || lower == "warning" || lower == "1")
        return LogLevel::Warn;
    if (lower == "info" || lower == "2")
        return LogLevel::Info;
    if (lower == "debug" || lower == "3")
        return LogLevel::Debug;
    return LogLevel::Info;
}

LogLevel
logLevel()
{
    int v = levelOverride.load(std::memory_order_relaxed);
    if (v < 0) {
        v = static_cast<int>(envLogLevel());
        levelOverride.store(v, std::memory_order_relaxed);
    }
    return static_cast<LogLevel>(v);
}

void
setLogLevel(LogLevel lvl)
{
    levelOverride.store(static_cast<int>(lvl), std::memory_order_relaxed);
}

bool
logEnabled(LogLevel lvl)
{
    return static_cast<int>(lvl) <= static_cast<int>(logLevel());
}

void
setQuiet(bool quiet)
{
    quietMode.store(quiet);
}

namespace detail {

void
panicImpl(const char *file, int line, const std::string &msg)
{
    std::ostringstream os;
    os << "panic: " << msg << " @ " << file << ":" << line;
    throw PanicError(os.str());
}

void
fatalImpl(const char *file, int line, const std::string &msg)
{
    std::ostringstream os;
    os << "fatal: " << msg << " @ " << file << ":" << line;
    throw FatalError(os.str());
}

void
logImpl(LogLevel lvl, const char *component, LogSite &site,
        const std::string &msg)
{
    std::uint64_t n = site.emitted.fetch_add(1, std::memory_order_relaxed);
    bool notice = false;
    if (n >= kLogSiteLimit) {
        site.suppressed.fetch_add(1, std::memory_order_relaxed);
        if (n != kLogSiteLimit)
            return;
        notice = true; // first suppressed message: say so once
    }
    if (quietMode.load())
        return;
    std::lock_guard<std::mutex> lock(logMutex());
    if (notice) {
        std::cerr << "[" << levelTag(lvl) << "] " << component
                  << ": (rate limit: further messages from this call site "
                     "suppressed)\n";
        return;
    }
    std::cerr << "[" << levelTag(lvl) << "] " << component << ": " << msg
              << "\n";
}

} // namespace detail
} // namespace ccsim
