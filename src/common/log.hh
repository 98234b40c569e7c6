/**
 * @file
 * gem5-style status and error reporting helpers.
 *
 * panic()  - internal invariant violated (a bug in this library); aborts.
 * fatal()  - unrecoverable user error (bad configuration); exits cleanly.
 * throwError() - bad input a library function cannot act on; throws
 *            killi::Error, which a daemon turns into an error reply
 *            and which, uncaught, ends the process like fatal().
 * warn()   - something suspicious that the simulation survives.
 * inform() - plain status messages.
 *
 * Messages route through a pluggable LogSink (stderr by default);
 * tests install a ScopedLogCapture to assert on output instead of
 * letting it hit the terminal. A ScopedLogClock adds simulated-cycle
 * timestamps ("@<tick>") to messages logged by the installing thread
 * while in scope; the clock is thread-local, so concurrent
 * simulations on worker threads each stamp with their own clock and
 * never see (or tear down) each other's. The level and sink are safe
 * to change from any thread, though messages emitted concurrently
 * with a sink swap may use either the old or the new one.
 */

#ifndef KILLI_COMMON_LOG_HH
#define KILLI_COMMON_LOG_HH

#include <cstdarg>
#include <functional>
#include <mutex>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/types.hh"

namespace killi
{

/** Verbosity levels for the global logger. */
enum class LogLevel
{
    Quiet,  //!< only fatal/panic
    Normal, //!< + warn and inform
    Debug   //!< + debug trace messages
};

/** Set the process-wide verbosity. Safe from any thread. */
void setLogLevel(LogLevel level);

/** Current process-wide verbosity. */
LogLevel logLevel();

/**
 * Destination for formatted log messages. write() is always invoked
 * under the logger's internal mutex, so implementations need no
 * locking of their own for logger-driven calls.
 */
class LogSink
{
  public:
    virtual ~LogSink() = default;

    /** @param tag "warn", "info", "debug", "panic", or "fatal".
     *  @param message fully formatted, timestamp included, no
     *         trailing newline. */
    virtual void write(const char *tag, const std::string &message) = 0;
};

/**
 * Install @p sink as the destination for subsequent messages
 * (nullptr restores the default stderr sink). Returns the previously
 * installed sink (nullptr if it was the default). panic() and
 * fatal() additionally always write to stderr so that death-test
 * matchers and crash logs see them regardless of the active sink.
 */
LogSink *setLogSink(LogSink *sink);

/**
 * RAII sink that buffers messages for inspection, for tests:
 *
 *     ScopedLogCapture capture;
 *     warn("deprecated knob %s", "x");
 *     EXPECT_TRUE(capture.contains("deprecated knob x"));
 *
 * Restores the previously installed sink on destruction. Captured
 * text is "tag: message".
 */
class ScopedLogCapture : public LogSink
{
  public:
    ScopedLogCapture();
    ~ScopedLogCapture() override;

    ScopedLogCapture(const ScopedLogCapture &) = delete;
    ScopedLogCapture &operator=(const ScopedLogCapture &) = delete;

    void write(const char *tag, const std::string &message) override;

    std::vector<std::string> messages() const;
    bool contains(const std::string &needle) const;
    void clear();

  private:
    mutable std::mutex mtx;
    std::vector<std::string> lines;
    LogSink *previous;
};

/**
 * RAII cycle-timestamp provider: while alive, every log message
 * emitted by the installing thread is prefixed with "@<tick> " using
 * @p now (typically a closure over EventQueue::now). The clock is
 * thread-local — other threads' messages are unaffected — so
 * concurrently running simulations (e.g. runner workers) can each
 * hold one without interference. Restores this thread's previous
 * clock on destruction; must be destroyed on the thread that
 * created it.
 */
class ScopedLogClock
{
  public:
    explicit ScopedLogClock(std::function<Tick()> now);
    ~ScopedLogClock();

    ScopedLogClock(const ScopedLogClock &) = delete;
    ScopedLogClock &operator=(const ScopedLogClock &) = delete;

  private:
    std::function<Tick()> previous;
};

/** Print an unconditional error and abort; use for internal bugs. */
[[noreturn]] void panic(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/** Print an unconditional error and exit(1); use for user errors. */
[[noreturn]] void fatal(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/**
 * The one error library code throws on input it cannot act on (a
 * malformed document, an unknown name). The serving daemons catch it
 * at their boundaries and answer with an error frame or a failed
 * job. Nothing else needs to catch it: an Error that escapes main()
 * or a thread body is reported as "fatal: <what()>" with exit status
 * 1, exactly as fatal() reports, by a terminate handler this library
 * installs.
 */
class Error : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/** Throw an Error whose what() is the formatted message. */
[[noreturn]] void throwError(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/** Print a warning about questionable but survivable conditions. */
void warn(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

/** Print an informational status message. */
void inform(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

/** Print a debug trace message (only at LogLevel::Debug). */
void debugLog(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

} // namespace killi

#endif // KILLI_COMMON_LOG_HH
