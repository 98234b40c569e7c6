/**
 * @file
 * Blocking client for the kserved protocol, used by kcli, the
 * fig4_performance `server=` mode, and the serve tests. One Client
 * is one connection; frames go out with send() and come back —
 * strictly in the order the daemon enqueued them — with recv().
 *
 * The convenience submit() wrapper drives the full request
 * lifecycle: submit frame out, then submitted / progress frames
 * (forwarded to an optional observer) until the terminal result
 * frame arrives. Not thread-safe; use one Client per thread.
 */

#ifndef KILLI_SERVE_CLIENT_CLIENT_HH
#define KILLI_SERVE_CLIENT_CLIENT_HH

#include <cstdint>
#include <functional>
#include <string>

#include "common/json.hh"
#include "serve/protocol.hh"

namespace killi::serve
{

/**
 * Connection-establishment policy. The default is the historical
 * behaviour: one blocking attempt, no deadline. Tools that race a
 * daemon's startup (kfleetd spawning workers, scripts that launch
 * kserved in the background) raise attempts so ECONNREFUSED /
 * ENOENT during the boot window becomes a bounded exponential-
 * backoff retry loop instead of an instant failure, and set
 * timeoutMs so a SYN black hole is a diagnosed error, not a hang.
 */
struct ConnectOptions
{
    /** Total connect attempts (>= 1). */
    unsigned attempts = 1;
    /** Per-attempt connect deadline in ms; 0 = blocking connect
     *  with the OS default timeout. */
    int timeoutMs = 0;
    /** Delay before the second attempt; doubles each retry (capped
     *  at maxBackoffMs). */
    int backoffMs = 50;
    int maxBackoffMs = 2000;
};

/**
 * A "submit" frame for @p options (the wire form
 * encodeSweepOptions() in bench/sweep.hh produces): the one request
 * envelope kcli, kload, the fleet's shard dispatch and the
 * fig4_performance `server=` mode share.
 */
Json submitFrame(Json options, int priority = 0, bool stream = true);

class Client
{
  public:
    Client() = default;

    /** Closes the connection. */
    ~Client();

    Client(const Client &) = delete;
    Client &operator=(const Client &) = delete;

    /** Connect to a Unix-domain socket. */
    bool connectUnix(const std::string &path,
                     std::string *err = nullptr);

    /** Connect to a Unix-domain socket under a retry policy. */
    bool connectUnix(const std::string &path,
                     const ConnectOptions &copt,
                     std::string *err = nullptr);

    /** Connect to 127.0.0.1:@p port . */
    bool connectTcp(std::uint16_t port, std::string *err = nullptr);

    /** Connect to 127.0.0.1:@p port under a retry policy. */
    bool connectTcp(std::uint16_t port, const ConnectOptions &copt,
                    std::string *err = nullptr);

    bool connected() const { return sock >= 0; }

    /** Encode and write one frame; false on I/O error. */
    bool send(const Json &frame, std::string *err = nullptr);

    /**
     * Block until one full frame arrives. False on protocol error,
     * I/O error, or EOF (err says which).
     */
    bool recv(Json &frame, std::string *err = nullptr);

    /**
     * recv() bounded by a deadline: false with err
     * "timeout after <ms>ms" when no complete frame arrives within
     * @p timeoutMs. A frame already buffered returns immediately.
     * Tests (and impatient tools) use this so a silent daemon is a
     * diagnosed failure instead of a hang.
     */
    bool recvWithin(Json &frame, int timeoutMs,
                    std::string *err = nullptr);

    /**
     * Submit an experiment and wait for its terminal frame.
     *
     * @param request a full "submit" frame (see SERVING.md)
     * @param terminal receives the "result" frame (or the "error"
     *        frame for a rejected request)
     * @param onFrame optional observer for every intermediate frame
     *        (submitted, progress)
     * @return false on transport failure (err filled); protocol-level
     *         failures (outcome != "done") still return true with
     *         the terminal frame for the caller to inspect.
     */
    bool submit(const Json &request, Json &terminal,
                const std::function<void(const Json &)> &onFrame = {},
                std::string *err = nullptr);

    void close();

  private:
    /** One connect attempt, optionally under a deadline (non-
     *  blocking connect + poll when timeoutMs > 0). */
    bool connectOnce(int family, const void *addr,
                     std::size_t addrLen, const std::string &what,
                     int timeoutMs, std::string *err);

    int sock = -1;
    FrameDecoder decoder;
};

} // namespace killi::serve

#endif // KILLI_SERVE_CLIENT_CLIENT_HH
