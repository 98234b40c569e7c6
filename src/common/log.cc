#include "common/log.hh"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <exception>

namespace killi
{

namespace
{

std::atomic<LogLevel> gLevel{LogLevel::Normal};

/** Guards the sink pointer and serializes writes, so interleaved
 *  messages from worker threads never shear. */
std::mutex gLogMutex;
LogSink *gSink = nullptr;

/** Per-thread cycle clock (empty = no timestamps). Thread-local so
 *  concurrent simulations each stamp with their own clock and a
 *  ScopedLogClock unwinding on one thread can never tear down
 *  another thread's active clock. */
thread_local std::function<Tick()> tClock;

std::string
formatMessage(const char *fmt, va_list ap)
{
    va_list apCopy;
    va_copy(apCopy, ap);
    const int needed = std::vsnprintf(nullptr, 0, fmt, apCopy);
    va_end(apCopy);
    std::string out(needed > 0 ? std::size_t(needed) : 0, '\0');
    if (needed > 0)
        std::vsnprintf(out.data(), out.size() + 1, fmt, ap);
    return out;
}

/** @p alwaysStderr keeps panic/fatal visible to death-test matchers
 *  and crash logs even when a capture sink is installed. */
void
vreport(const char *tag, const char *fmt, va_list ap, bool alwaysStderr)
{
    std::string msg = formatMessage(fmt, ap);

    // The clock is thread-local: read it before taking the write
    // mutex so the (possibly user-supplied) closure runs unlocked.
    if (tClock) {
        const Tick now = tClock();
        char stamp[32];
        std::snprintf(stamp, sizeof(stamp), "@%llu ",
                      static_cast<unsigned long long>(now));
        msg.insert(0, stamp);
    }

    std::lock_guard<std::mutex> lock(gLogMutex);
    if (gSink) {
        gSink->write(tag, msg);
        if (!alwaysStderr)
            return;
    }
    std::fprintf(stderr, "%s: %s\n", tag, msg.c_str());
}

/** Reports an uncaught Error through fatal(), so no command-line
 *  main needs a try/catch of its own; anything else (a bad_alloc, a
 *  bug) still ends in the default handler's abort. */
[[noreturn]] void terminateOnError();

const std::terminate_handler gDefaultTerminate =
    std::set_terminate(terminateOnError);

void
terminateOnError()
{
    if (const std::exception_ptr thrown = std::current_exception()) {
        try {
            std::rethrow_exception(thrown);
        } catch (const Error &e) {
            fatal("%s", e.what());
        } catch (...) {
        }
    }
    if (gDefaultTerminate)
        gDefaultTerminate();
    std::abort();
}

} // namespace

void
setLogLevel(LogLevel level)
{
    gLevel.store(level, std::memory_order_relaxed);
}

LogLevel
logLevel()
{
    return gLevel.load(std::memory_order_relaxed);
}

LogSink *
setLogSink(LogSink *sink)
{
    std::lock_guard<std::mutex> lock(gLogMutex);
    LogSink *previous = gSink;
    gSink = sink;
    return previous;
}

ScopedLogCapture::ScopedLogCapture() : previous(setLogSink(this)) {}

ScopedLogCapture::~ScopedLogCapture()
{
    setLogSink(previous);
}

void
ScopedLogCapture::write(const char *tag, const std::string &message)
{
    // The logger's mutex serializes logger-driven calls; this mutex
    // additionally protects against concurrent messages()/clear().
    std::lock_guard<std::mutex> lock(mtx);
    lines.push_back(std::string(tag) + ": " + message);
}

std::vector<std::string>
ScopedLogCapture::messages() const
{
    std::lock_guard<std::mutex> lock(mtx);
    return lines;
}

bool
ScopedLogCapture::contains(const std::string &needle) const
{
    std::lock_guard<std::mutex> lock(mtx);
    for (const std::string &line : lines) {
        if (line.find(needle) != std::string::npos)
            return true;
    }
    return false;
}

void
ScopedLogCapture::clear()
{
    std::lock_guard<std::mutex> lock(mtx);
    lines.clear();
}

ScopedLogClock::ScopedLogClock(std::function<Tick()> now)
    : previous(std::move(tClock))
{
    tClock = std::move(now);
}

ScopedLogClock::~ScopedLogClock()
{
    tClock = std::move(previous);
}

void
panic(const char *fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    vreport("panic", fmt, ap, true);
    va_end(ap);
    std::abort();
}

void
fatal(const char *fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    vreport("fatal", fmt, ap, true);
    va_end(ap);
    std::exit(1);
}

void
throwError(const char *fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    std::string msg = formatMessage(fmt, ap);
    va_end(ap);
    throw Error(msg);
}

void
warn(const char *fmt, ...)
{
    if (logLevel() == LogLevel::Quiet)
        return;
    va_list ap;
    va_start(ap, fmt);
    vreport("warn", fmt, ap, false);
    va_end(ap);
}

void
inform(const char *fmt, ...)
{
    if (logLevel() == LogLevel::Quiet)
        return;
    va_list ap;
    va_start(ap, fmt);
    vreport("info", fmt, ap, false);
    va_end(ap);
}

void
debugLog(const char *fmt, ...)
{
    if (logLevel() != LogLevel::Debug)
        return;
    va_list ap;
    va_start(ap, fmt);
    vreport("debug", fmt, ap, false);
    va_end(ap);
}

} // namespace killi
