#include "serve/server.hh"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <csignal>
#include <cstring>
#include <sstream>
#include <vector>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <sys/un.h>
#include <unistd.h>

#include "bench/sweep.hh"
#include "common/build_info.hh"
#include "common/log.hh"
#include "common/options.hh"
#include "fault/fault_model.hh"
#include "replay/recording.hh"
#include "replay/session.hh"
#include "trace/trace.hh"

namespace killi::serve
{

namespace
{

long long
steadyMs()
{
    return std::chrono::duration_cast<std::chrono::milliseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

bool
setNonBlocking(int fd)
{
    const int flags = ::fcntl(fd, F_GETFL, 0);
    return flags >= 0 &&
           ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

/** Bind @p fd to 127.0.0.1:@p port and read back the bound port
 *  into @p bound; returns the failing step's name, or null. */
const char *
bindLoopback(int fd, std::uint16_t port, std::uint16_t &bound)
{
    const int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    if (::bind(fd, reinterpret_cast<sockaddr *>(&addr), sizeof(addr)) !=
        0)
        return "bind";
    socklen_t len = sizeof(addr);
    if (::getsockname(fd, reinterpret_cast<sockaddr *>(&addr), &len) !=
        0)
        return "getsockname";
    bound = ntohs(addr.sin_port);
    return nullptr;
}

/** A plausible content hash: 64 lowercase hex digits. Checked before
 *  splicing a client-supplied fetch key into a reply, so the key can
 *  never break out of its JSON string. */
bool
isContentHash(const std::string &key)
{
    if (key.size() != 64)
        return false;
    for (const char c : key)
        if (!((c >= '0' && c <= '9') || (c >= 'a' && c <= 'f')))
            return false;
    return true;
}

/**
 * The terminal frame for a computed/cached result is spliced
 * together as text so the "result" member is the *stored bytes* —
 * a cache hit is byte-identical to the original reply by
 * construction, never re-encoded.
 */
std::string
resultFrameText(std::uint64_t id, bool cached, const std::string &hash,
                const std::string &resultText,
                const std::string &spansText = "",
                const std::string &fleetText = "")
{
    std::string out = "{\"type\":\"result\",\"id\":";
    out += std::to_string(id);
    out += ",\"cached\":";
    out += cached ? "true" : "false";
    out += ",\"key\":\"";
    out += hash;
    out += "\",\"outcome\":\"done\",\"result\":";
    out += resultText;
    // Spans and fleet attribution ride as frame-level siblings,
    // never inside "result": the "result" member is the cached bytes
    // and must stay byte-identical between the cold run and every
    // later hit.
    if (!spansText.empty()) {
        out += ",\"spans\":";
        out += spansText;
    }
    if (!fleetText.empty()) {
        out += ",\"fleet\":";
        out += fleetText;
    }
    out += "}";
    return out;
}

double
sinceSeconds(std::chrono::steady_clock::time_point t0,
             std::chrono::steady_clock::time_point t1)
{
    return std::chrono::duration<double>(t1 - t0).count();
}

/** kserved_job_stage_seconds label values, indexed like
 *  Server::mStageSeconds. */
constexpr const char *kStageNames[6] = {"decode",    "queue", "setup",
                                        "run",       "serialize",
                                        "reply"};

Json
terminalFrame(std::uint64_t id, const std::string &hash,
              const char *outcome, const std::string &error)
{
    Json doc = Json::object();
    doc.set("type", Json::string("result"));
    doc.set("id", Json::number(id));
    doc.set("cached", Json::boolean(false));
    doc.set("key", Json::string(hash));
    doc.set("outcome", Json::string(outcome));
    doc.set("error", Json::string(error));
    return doc;
}

} // namespace

std::string
faultMapKey(const ScenarioSpec &scenario, std::size_t numLines,
            std::size_t lineBits)
{
    Json key = Json::object();
    key.set("kind", Json::string("faultmap"));
    key.set("scenario", scenario.toJson());
    key.set("lines", Json::number(std::uint64_t(numLines)));
    key.set("line_bits", Json::number(std::uint64_t(lineBits)));
    key.set("build", Json::string(buildId()));
    return key.toString(0);
}

decltype(SweepOptions::warmFaultSource)
warmFaultSource(DieStore &store, const ScenarioSpec &scenario)
{
    return [&store, scenario](const FaultModel &model,
                              std::size_t numLines,
                              std::size_t lineBits) {
        return store.getOrSynthesize(
            faultMapKey(scenario, numLines, lineBits),
            [&model, numLines, lineBits] {
                std::shared_ptr<const FaultPopulation> pop =
                    model.sample(numLines, lineBits);
                std::size_t bytes = sizeof(FaultPopulation);
                for (const auto &line : *pop) {
                    bytes += sizeof(line) +
                             line.capacity() * sizeof(FaultCell);
                }
                return std::make_pair(std::move(pop), bytes);
            });
    };
}

Server::Server(ServerOptions options)
    : opt(std::move(options)),
      scheduler(opt.threads, opt.maxQueue, &registry),
      cache({.maxEntries = opt.cacheEntries}, &registry,
            "kserved_cache"),
      warm({.maxBytes = std::uint64_t(opt.warmStoreMb) << 20},
           &registry, "kserved_warm_store"),
      bootTime(std::chrono::steady_clock::now())
{
    registerServerMetrics();
}

Json
Server::JobSpans::toJson(double totalSeconds) const
{
    Json doc = Json::object();
    doc.set("decode_s", Json::number(decode));
    doc.set("queue_s", Json::number(queue));
    doc.set("setup_s", Json::number(setup));
    doc.set("run_s", Json::number(run));
    doc.set("serialize_s", Json::number(serialize));
    doc.set("reply_s", Json::number(reply));
    doc.set("total_s", Json::number(totalSeconds));
    return doc;
}

void
Server::registerServerMetrics()
{
    mConnections = &registry.counter("kserved_connections_total",
                                     "Client connections accepted");
    mConnsRejected = &registry.counter(
        "kserved_connections_rejected_total",
        "Connections refused by the max-conns admission bound");
    mFramesIn = &registry.counter("kserved_frames_received_total",
                                  "Protocol frames decoded from clients");
    mFramesOut = &registry.counter("kserved_frames_sent_total",
                                   "Protocol frames enqueued to clients");
    mProtocolErrors =
        &registry.counter("kserved_protocol_errors_total",
                          "Malformed frames and unknown frame types");
    mOutboxBytes =
        &registry.counter("kserved_outbox_bytes_total",
                          "Encoded reply bytes enqueued to outboxes");
    mHttpRequests =
        &registry.counter("kserved_http_requests_total",
                          "Requests served by the /metrics listener");
    mWakeups = &registry.counter(
        "kserved_reactor_wakeups_total",
        "Reactor wakeups via the wake pipe (worker-enqueued frames "
        "and drain signals)");
    mFetchHits = &registry.counter(
        "kserved_fetch_hits_total",
        "Fetch frames answered from the result cache by hash");
    mFetchMisses = &registry.counter(
        "kserved_fetch_misses_total",
        "Fetch frames that found no entry for the hash");
    mSlowJobs = &registry.counter(
        "kserved_slow_jobs_total",
        "Jobs that exceeded the slow-job threshold");
    mJobsDone = &registry.counter("kserved_jobs_total",
                                  "Finished jobs by terminal outcome",
                                  {{"outcome", "done"}});
    mJobsFailed = &registry.counter("kserved_jobs_total",
                                    "Finished jobs by terminal outcome",
                                    {{"outcome", "failed"}});
    mJobsCancelled =
        &registry.counter("kserved_jobs_total",
                          "Finished jobs by terminal outcome",
                          {{"outcome", "cancelled"}});
    mJobsRejected =
        &registry.counter("kserved_jobs_total",
                          "Finished jobs by terminal outcome",
                          {{"outcome", "rejected"}});
    mJobSeconds = &registry.histogram(
        "kserved_job_seconds",
        "End-to-end submit-to-finish latency (cache hits observe 0)");
    for (std::size_t k = 0; k < 6; ++k) {
        mStageSeconds[k] = &registry.histogram(
            "kserved_job_stage_seconds",
            "Per-stage job lifecycle latency",
            {{"stage", kStageNames[k]}});
    }
    registry.gaugeFn("kserved_connections_active",
                     "Client connections currently open", {}, [this] {
                         return double(activeConns.load(
                             std::memory_order_relaxed));
                     });
    registry.gaugeFn("kserved_uptime_seconds",
                     "Seconds since the daemon booted", {}, [this] {
                         return sinceSeconds(
                             bootTime,
                             std::chrono::steady_clock::now());
                     });
    registry.counterFn("ktrace_dropped_records_total",
                       "Trace records lost to ring-buffer wraparound "
                       "(process-wide)",
                       {}, [] { return traceDroppedRecordsTotal(); });
}

Server::~Server()
{
    stop();
}

bool
Server::start(std::string *err)
{
    bool socketBound = false;
    const auto fail = [&](const std::string &what) {
        if (err)
            *err = what + ": " + std::strerror(errno);
        // waitDone() skips cleanupAfterJoin() for a server that never
        // started, so the socket file this call bound goes here.
        if (socketBound)
            ::unlink(opt.socketPath.c_str());
        closeFds();
        return false;
    };

    if (!opt.socketPath.empty()) {
        sockaddr_un addr{};
        addr.sun_family = AF_UNIX;
        if (opt.socketPath.size() >= sizeof(addr.sun_path)) {
            if (err)
                *err = "socket path too long: " + opt.socketPath;
            return false;
        }
        std::strncpy(addr.sun_path, opt.socketPath.c_str(),
                     sizeof(addr.sun_path) - 1);
        listenFd = ::socket(AF_UNIX, SOCK_STREAM, 0);
        if (listenFd < 0)
            return fail("socket");
        ::unlink(opt.socketPath.c_str()); // stale socket from a crash
        if (::bind(listenFd, reinterpret_cast<sockaddr *>(&addr),
                   sizeof(addr)) != 0)
            return fail("bind " + opt.socketPath);
        socketBound = true;
    } else {
        listenFd = ::socket(AF_INET, SOCK_STREAM, 0);
        if (listenFd < 0)
            return fail("socket");
        if (const char *step = bindLoopback(listenFd, opt.port, portBound))
            return fail(std::string(step) + " 127.0.0.1:" +
                        std::to_string(opt.port));
    }
    if (::listen(listenFd, 1024) != 0)
        return fail("listen");
    setNonBlocking(listenFd);

    if (opt.metricsHttp) {
        metricsFd = ::socket(AF_INET, SOCK_STREAM, 0);
        if (metricsFd < 0)
            return fail("metrics socket");
        if (const char *step =
                bindLoopback(metricsFd, opt.metricsPort, metricsPortBound))
            return fail(std::string(step) + " metrics 127.0.0.1:" +
                        std::to_string(opt.metricsPort));
        if (::listen(metricsFd, 16) != 0)
            return fail("listen metrics");
        setNonBlocking(metricsFd);
    }

    epollFd = ::epoll_create1(EPOLL_CLOEXEC);
    if (epollFd < 0)
        return fail("epoll_create1");
    if (::pipe(wakeFd) != 0)
        return fail("pipe");
    setNonBlocking(wakeFd[0]);
    setNonBlocking(wakeFd[1]);
    for (const int fd : {wakeFd[0], listenFd, metricsFd})
        if (fd >= 0 && !watch(EPOLL_CTL_ADD, fd))
            return fail("epoll_ctl");

    started.store(true);
    reactor = std::thread(&Server::reactorLoop, this);
    return true;
}

void
Server::wake() const
{
    if (wakeFd[1] >= 0) {
        const char c = 0;
        // Non-blocking; a full pipe already guarantees a wakeup.
        [[maybe_unused]] ssize_t n = ::write(wakeFd[1], &c, 1);
    }
}

bool
Server::watch(int op, int fd, bool out) const
{
    epoll_event ev{};
    ev.events = EPOLLIN | (out ? std::uint32_t(EPOLLOUT) : 0u);
    ev.data.fd = fd;
    return ::epoll_ctl(epollFd, op, fd, &ev) == 0;
}

void
Server::notifyConn(const std::shared_ptr<Connection> &conn)
{
    if (conn->notified.exchange(true, std::memory_order_acq_rel))
        return; // the reactor already has a pending entry
    {
        std::lock_guard<std::mutex> lock(pendingMtx);
        pending.push_back(conn);
    }
    wake();
}

void
Server::requestDrain()
{
    drainFlag.store(true, std::memory_order_relaxed);
    wake();
}

void
Server::waitDone()
{
    if (!started.load(std::memory_order_acquire))
        return;
    if (reactor.joinable())
        reactor.join();
    cleanupAfterJoin();
}

void
Server::stop()
{
    requestDrain();
    waitDone();
}

void
Server::closeFds()
{
    for (int *fd : {&listenFd, &metricsFd, &epollFd, &wakeFd[0],
                    &wakeFd[1]}) {
        if (*fd >= 0)
            ::close(*fd);
        *fd = -1;
    }
}

void
Server::cleanupAfterJoin()
{
    if (cleanedUp.exchange(true))
        return;
    closeFds();
    if (!opt.socketPath.empty())
        ::unlink(opt.socketPath.c_str());
    // Drained for good: release cached results and warm state in one
    // sweep each, so the byte/entry gauges read 0 afterwards instead
    // of drifting (evictions racing a per-entry teardown used to
    // leave the bytes gauge stuck at the raced entries' sizes).
    cache.clear();
    warm.clear();
}

void
Server::acceptClients()
{
    while (true) {
        const int fd = ::accept(listenFd, nullptr, nullptr);
        if (fd < 0)
            break;
        setNonBlocking(fd);
        auto conn = std::make_shared<Connection>();
        conn->fd = fd;
        connByFd.emplace(fd, conn);
        watch(EPOLL_CTL_ADD, fd);
        mConnections->inc();
        const std::int64_t active =
            activeConns.fetch_add(1, std::memory_order_relaxed) + 1;
        if (opt.maxConns > 0 &&
            std::uint64_t(active) > opt.maxConns) {
            // Admission control: answer with explicit backpressure
            // and close once the error frame flushes; the barrage
            // sees a clean protocol-level rejection, not a hang or
            // an accept-queue overflow.
            mConnsRejected->inc();
            enqueueFrame(conn,
                         encodeFrame(errorReply(
                             "overloaded",
                             "connection limit reached (" +
                                 std::to_string(opt.maxConns) +
                                 "); retry later")));
            std::lock_guard<std::mutex> lock(conn->mtx);
            conn->closeAfterFlush = true;
        }
    }
}

void
Server::closeConnection(const std::shared_ptr<Connection> &conn)
{
    if (conn->fd < 0)
        return;
    conn->closed.store(true, std::memory_order_relaxed);
    // Orphaned jobs would burn a worker computing a result nobody
    // will read; cancel them (queued ones go away immediately,
    // running ones wind down at the next sweep point).
    std::vector<std::uint64_t> orphans;
    {
        std::lock_guard<std::mutex> lock(jobsMtx);
        for (const auto &[id, rec] : jobs)
            if (rec.conn == conn)
                orphans.push_back(id);
    }
    for (const std::uint64_t id : orphans)
        scheduler.cancel(id);
    ::epoll_ctl(epollFd, EPOLL_CTL_DEL, conn->fd, nullptr);
    connByFd.erase(conn->fd);
    ::close(conn->fd);
    conn->fd = -1;
    activeConns.fetch_sub(1, std::memory_order_relaxed);
}

void
Server::enqueueFrame(const std::shared_ptr<Connection> &conn,
                     std::string bytes)
{
    mFramesOut->inc();
    mOutboxBytes->inc(bytes.size());
    conn->enqueue(std::move(bytes));
    notifyConn(conn);
}

void
Server::readFromClient(const std::shared_ptr<Connection> &conn)
{
    char buf[65536];
    while (true) {
        const ssize_t n = ::recv(conn->fd, buf, sizeof(buf), 0);
        if (n > 0) {
            conn->decoder.feed(buf, std::size_t(n));
            continue;
        }
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
            break;
        if (n < 0 && errno == EINTR)
            continue;
        // EOF or hard error: drop the connection.
        closeConnection(conn);
        return;
    }

    Json frame;
    FrameDecoder::Status st;
    while ((st = conn->decoder.next(frame)) ==
           FrameDecoder::Status::Frame) {
        mFramesIn->inc();
        handleFrame(conn, frame);
    }
    if (st == FrameDecoder::Status::Error) {
        mProtocolErrors->inc();
        enqueueFrame(conn, encodeFrame(errorReply(
                               "protocol", conn->decoder.error())));
        std::lock_guard<std::mutex> lock(conn->mtx);
        conn->closeAfterFlush = true;
    }
}

void
Server::flushToClient(const std::shared_ptr<Connection> &conn)
{
    bool close = false;
    {
        std::lock_guard<std::mutex> lock(conn->mtx);
        while (!conn->outq.empty()) {
            // Gather the queued frames straight out of the deque —
            // no flattening copy — and hand them to the kernel in
            // one sendmsg (MSG_NOSIGNAL: a vanished peer is an
            // errno, not a SIGPIPE).
            iovec iov[16];
            int iovCnt = 0;
            std::size_t skip = conn->outOff;
            for (const std::string &chunk : conn->outq) {
                if (iovCnt == 16)
                    break;
                iov[iovCnt].iov_base =
                    const_cast<char *>(chunk.data() + skip);
                iov[iovCnt].iov_len = chunk.size() - skip;
                ++iovCnt;
                skip = 0;
            }
            msghdr msg{};
            msg.msg_iov = iov;
            msg.msg_iovlen = std::size_t(iovCnt);
            const ssize_t n =
                ::sendmsg(conn->fd, &msg, MSG_NOSIGNAL);
            if (n > 0) {
                std::size_t left = std::size_t(n);
                while (left > 0 && !conn->outq.empty()) {
                    const std::size_t avail =
                        conn->outq.front().size() - conn->outOff;
                    if (left >= avail) {
                        left -= avail;
                        conn->outq.pop_front();
                        conn->outOff = 0;
                    } else {
                        conn->outOff += left;
                        left = 0;
                    }
                }
                continue;
            }
            if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
                break;
            if (n < 0 && errno == EINTR)
                continue;
            close = true; // peer vanished mid-write
            break;
        }
        if (conn->outq.empty() && conn->closeAfterFlush)
            close = true;
    }
    if (close)
        closeConnection(conn);
}

void
Server::flushAndArm(const std::shared_ptr<Connection> &conn)
{
    flushToClient(conn);
    if (conn->fd < 0)
        return;
    const bool want = conn->pendingOut();
    if (want != conn->outArmed) {
        conn->outArmed = want;
        watch(EPOLL_CTL_MOD, conn->fd, want);
    }
}

void
Server::reactorLoop()
{
    // Only this thread sees the drain begin, so one local flag
    // orders it: announce, cancel the queue, shut the intake.
    bool draining = false;
    epoll_event evs[128];
    while (true) {
        if (!draining && drainFlag.load(std::memory_order_relaxed)) {
            draining = true;
            inform("kserved: draining (in-flight jobs finish, "
                   "queued jobs cancelled)");
            scheduler.beginDrain();
            ::epoll_ctl(epollFd, EPOLL_CTL_DEL, listenFd, nullptr);
            // The metrics plane shuts with the intake: a scrape of a
            // half-drained daemon is not a state worth serving.
            if (metricsFd >= 0)
                ::epoll_ctl(epollFd, EPOLL_CTL_DEL, metricsFd, nullptr);
            closeMetricsClients();
        }

        // While draining wait with a timeout so in-flight completion
        // (signalled via the wake pipe, but belt and braces) is
        // always noticed.
        const int n =
            ::epoll_wait(epollFd, evs, 128, draining ? 50 : -1);
        if (n < 0 && errno != EINTR) {
            warn("kserved: epoll_wait: %s", std::strerror(errno));
            break;
        }
        for (int i = 0; i < std::max(n, 0); ++i) {
            const int fd = evs[i].data.fd;
            const std::uint32_t events = evs[i].events;
            if (fd == wakeFd[0]) {
                char sink[256];
                while (::read(wakeFd[0], sink, sizeof(sink)) > 0) {
                }
                mWakeups->inc();
                continue;
            }
            if (fd == listenFd) {
                if (!draining)
                    acceptClients();
                continue;
            }
            if (metricsFd >= 0 && fd == metricsFd) {
                if (!draining)
                    acceptMetricsClients();
                continue;
            }
            const auto cit = connByFd.find(fd);
            if (cit != connByFd.end()) {
                const std::shared_ptr<Connection> conn = cit->second;
                if (events & (EPOLLIN | EPOLLERR | EPOLLHUP))
                    readFromClient(conn);
                if (conn->fd >= 0)
                    flushAndArm(conn);
                continue;
            }
            const auto hit = httpByFd.find(fd);
            if (hit != httpByFd.end()) {
                HttpConn &hc = hit->second;
                const bool readable = (events & EPOLLIN) != 0;
                const bool bad =
                    (events & (EPOLLERR | EPOLLHUP)) != 0;
                if (!serviceMetricsConn(hc, readable, bad)) {
                    ::epoll_ctl(epollFd, EPOLL_CTL_DEL, fd, nullptr);
                    ::close(fd);
                    httpByFd.erase(hit);
                } else if ((!hc.out.empty()) != hc.outArmed) {
                    hc.outArmed = !hc.out.empty();
                    watch(EPOLL_CTL_MOD, fd, hc.outArmed);
                }
                continue;
            }
        }

        // Outboxes freshly filled by scheduler workers: cleared
        // before flushing, so an enqueue racing the swap re-notifies
        // and is picked up next round at the latest.
        std::vector<std::shared_ptr<Connection>> pend;
        {
            std::lock_guard<std::mutex> lock(pendingMtx);
            pend.swap(pending);
        }
        for (const auto &conn : pend) {
            conn->notified.store(false, std::memory_order_release);
            if (conn->fd >= 0)
                flushAndArm(conn);
        }

        if (draining && scheduler.idle()) {
            bool flushed = true;
            for (const auto &[fd, conn] : connByFd)
                if (conn->pendingOut())
                    flushed = false;
            if (flushed)
                break;
        }
    }

    std::vector<std::shared_ptr<Connection>> remaining;
    remaining.reserve(connByFd.size());
    for (const auto &[fd, conn] : connByFd)
        remaining.push_back(conn);
    for (const auto &conn : remaining)
        closeConnection(conn);
    closeMetricsClients();
}

void
Server::acceptMetricsClients()
{
    while (true) {
        const int fd = ::accept(metricsFd, nullptr, nullptr);
        if (fd < 0)
            break;
        setNonBlocking(fd);
        watch(EPOLL_CTL_ADD, fd);
        httpByFd[fd].fd = fd;
    }
}

void
Server::closeMetricsClients()
{
    for (const auto &[fd, hc] : httpByFd) {
        ::epoll_ctl(epollFd, EPOLL_CTL_DEL, fd, nullptr);
        ::close(fd);
    }
    httpByFd.clear();
}

bool
Server::serviceMetricsConn(HttpConn &conn, bool readable, bool error)
{
    if (error)
        return false;

    if (readable) {
        char buf[4096];
        while (true) {
            const ssize_t n = ::recv(conn.fd, buf, sizeof(buf), 0);
            if (n > 0) {
                conn.in.append(buf, std::size_t(n));
                continue;
            }
            if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
                break;
            if (n < 0 && errno == EINTR)
                continue;
            return false; // EOF or hard error
        }
        if (conn.out.empty()) {
            if (conn.in.size() > 8192)
                return false; // not a plausible scrape request
            const auto headerEnd = conn.in.find("\r\n\r\n");
            if (headerEnd != std::string::npos) {
                mHttpRequests->inc();
                const auto lineEnd = conn.in.find("\r\n");
                const std::string line = conn.in.substr(0, lineEnd);
                std::string status = "404 Not Found";
                std::string body = "not found\n";
                if (line.rfind("GET ", 0) != 0) {
                    status = "405 Method Not Allowed";
                    body = "only GET is supported\n";
                } else if (line.rfind("GET /metrics ", 0) == 0 ||
                           line.rfind("GET /metrics?", 0) == 0) {
                    status = "200 OK";
                    body = registry.prometheusText();
                }
                conn.out = "HTTP/1.0 " + status +
                           "\r\nContent-Type: text/plain; "
                           "version=0.0.4; charset=utf-8\r\n"
                           "Content-Length: " +
                           std::to_string(body.size()) +
                           "\r\nConnection: close\r\n\r\n" +
                           body;
            }
        }
    }

    while (!conn.out.empty()) {
        const ssize_t n = ::send(conn.fd, conn.out.data(),
                                 conn.out.size(), MSG_NOSIGNAL);
        if (n > 0) {
            conn.out.erase(0, std::size_t(n));
            if (conn.out.empty())
                return false; // answered; close (Connection: close)
            continue;
        }
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
            break;
        if (n < 0 && errno == EINTR)
            continue;
        return false;
    }
    return true;
}

void
Server::handleFrame(const std::shared_ptr<Connection> &conn,
                    const Json &req)
{
    const std::string &type = req.at("type").asString();

    if (type == "ping") {
        Json doc = Json::object();
        doc.set("type", Json::string("pong"));
        doc.set("build", Json::string(buildId()));
        enqueueFrame(conn, encodeFrame(doc));
        return;
    }

    if (type == "stats") {
        Json doc = Json::object();
        doc.set("type", Json::string("stats_reply"));
        doc.set("stats", statsJson());
        enqueueFrame(conn, encodeFrame(doc));
        return;
    }

    if (type == "metrics") {
        // Both views come from the same registry walk a scrape
        // would take, so the frame and GET /metrics always agree.
        Json doc = Json::object();
        doc.set("type", Json::string("metrics_reply"));
        doc.set("build", Json::string(buildId()));
        doc.set("metrics", registry.toJson());
        doc.set("text", Json::string(registry.prometheusText()));
        enqueueFrame(conn, encodeFrame(doc));
        return;
    }

    if (type == "fetch") {
        // Peer transfer: address the result cache by content hash.
        // The hash format is validated before it is spliced into the
        // reply text, and the hit path reuses the stored bytes so a
        // fetched result is byte-identical to the original reply's
        // "result" member.
        if (!req.contains("key") ||
            req.at("key").kind() != Json::Kind::String ||
            !isContentHash(req.at("key").asString())) {
            enqueueFrame(
                conn, encodeFrame(errorReply(
                          "bad_request",
                          "\"fetch\" needs a 64-hex-digit string "
                          "\"key\"")));
            return;
        }
        const std::string &key = req.at("key").asString();
        if (const ResultStore::Value text = cache.lookupByHash(key)) {
            mFetchHits->inc();
            std::string out =
                "{\"type\":\"fetch_reply\",\"found\":true,"
                "\"key\":\"";
            out += key;
            out += "\",\"result\":";
            out += *text;
            out += "}";
            enqueueFrame(conn, encodeFramePayload(out));
        } else {
            mFetchMisses->inc();
            Json doc = Json::object();
            doc.set("type", Json::string("fetch_reply"));
            doc.set("found", Json::boolean(false));
            doc.set("key", Json::string(key));
            enqueueFrame(conn, encodeFrame(doc));
        }
        return;
    }

    if (type == "drain") {
        requestDrain();
        Json doc = Json::object();
        doc.set("type", Json::string("draining"));
        enqueueFrame(conn, encodeFrame(doc));
        return;
    }

    if (type == "status" || type == "cancel") {
        // A JSON integer only: a double id (1e300, 2.5, or an
        // integer past 2^53) has no exact job id to answer for.
        if (!req.contains("id") ||
            req.at("id").kind() != Json::Kind::Int ||
            req.at("id").asInt() < 0) {
            enqueueFrame(conn, encodeFrame(errorReply(
                                   "bad_request",
                                   "\"" + type +
                                       "\" needs a non-negative "
                                       "integer \"id\"")));
            return;
        }
        const auto id = std::uint64_t(req.at("id").asInt());
        Json doc = Json::object();
        if (type == "status") {
            bool known = false;
            const JobState st = scheduler.state(id, &known);
            doc.set("type", Json::string("status_reply"));
            doc.set("id", Json::number(id));
            doc.set("known", Json::boolean(known));
            if (known)
                doc.set("state", Json::string(jobStateName(st)));
            if (opt.statusAnnotator) {
                const Json extra = opt.statusAnnotator(id);
                if (!extra.isNull())
                    doc.set("fleet", extra);
            }
        } else {
            doc.set("type", Json::string("cancel_reply"));
            doc.set("id", Json::number(id));
            doc.set("cancelled",
                    Json::boolean(scheduler.cancel(id)));
        }
        enqueueFrame(conn, encodeFrame(doc));
        return;
    }

    if (type == "submit") {
        handleSubmit(conn, req);
        return;
    }

    mProtocolErrors->inc();
    enqueueFrame(conn, encodeFrame(errorReply(
                           "unknown_type",
                           "unknown frame type \"" + type + "\"")));
}

void
Server::handleSubmit(const std::shared_ptr<Connection> &conn,
                     const Json &req)
{
    auto spans = std::make_shared<JobSpans>();
    spans->submit = std::chrono::steady_clock::now();

    SubmitRequest sub;
    std::string verr;
    if (!parseSubmit(req, sub, verr)) {
        enqueueFrame(conn,
                     encodeFrame(errorReply("bad_request", verr)));
        return;
    }

    const std::string canonical = canonicalKeyFor(sub.sopt);
    spans->decode = sinceSeconds(spans->submit,
                                 std::chrono::steady_clock::now());
    const std::uint64_t id =
        nextJobId.fetch_add(1, std::memory_order_relaxed);

    // Record/replay jobs bypass the cache entirely — neither lookup
    // (a cached result has no recording / no verification verdict)
    // nor, later, insert (finishJob honours JobRecord::noCache).
    const bool bypassCache = sub.record || sub.replayRec != nullptr;
    std::string hash;
    const ResultStore::Value cached =
        bypassCache ? nullptr : cache.lookup(canonical, &hash);
    const bool hit = cached != nullptr;
    if (bypassCache)
        hash = ResultStore::hashKey(canonical);

    Json submitted = Json::object();
    submitted.set("type", Json::string("submitted"));
    submitted.set("id", Json::number(id));
    submitted.set("key", Json::string(hash));
    submitted.set("cached", Json::boolean(hit));
    enqueueFrame(conn, encodeFrame(submitted));

    if (hit) {
        // Hits keep the historical latency convention (0 s) and
        // observe only the decode stage — there is no queue/run/
        // serialize for a spliced reply.
        mJobSeconds->observe(0.0);
        mStageSeconds[0]->observe(spans->decode);
        spans->reply = sinceSeconds(
            spans->submit, std::chrono::steady_clock::now()) -
            spans->decode;
        const std::string spansText =
            spans->toJson(spans->decode + spans->reply).toString(0);
        enqueueFrame(conn,
                     encodeFramePayload(resultFrameText(
                         id, true, hash, *cached, spansText)));
        return;
    }

    auto fleetInfo = std::make_shared<Json>();
    {
        std::lock_guard<std::mutex> lock(jobsMtx);
        jobs.emplace(id, JobRecord{conn, canonical, hash,
                                   spans->submit, bypassCache,
                                   spans, fleetInfo});
    }

    // Plain sweeps go through the fleet backend when one is
    // configured; record/replay jobs always run locally (their
    // verdicts and recordings are tied to this process's run).
    const bool viaFleet = opt.fleetRunner != nullptr &&
                          !sub.record && sub.replayRec == nullptr;
    const bool stream = sub.stream;
    auto work = [this, sub, id, conn, stream, spans, fleetInfo,
                 viaFleet](const CancelToken &cancel)
        -> std::string {
        const auto workStart = std::chrono::steady_clock::now();
        spans->queue = sinceSeconds(spans->submit, workStart) -
                       spans->decode;
        if (opt.debugJobDelaySeconds > 0) {
            // Cancellable fixed service-time injection (straggler
            // and emulation hook; see ServerOptions).
            const auto until =
                workStart +
                std::chrono::duration_cast<
                    std::chrono::steady_clock::duration>(
                    std::chrono::duration<double>(
                        opt.debugJobDelaySeconds));
            while (!cancel.cancelled() &&
                   std::chrono::steady_clock::now() < until)
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(5));
            if (cancel.cancelled())
                return "";
        }
        const SweepOptions &sopt = sub.sopt;
        FleetProgressFn progressFn;
        if (stream) {
            // Periodic snapshots throttled to ~10/s per job; point
            // completions always go out.
            auto lastMs = std::make_shared<std::atomic<long long>>(
                -1000000);
            progressFn = [this, id, conn,
                          lastMs](const SweepProgress &p) {
                if (conn->closed.load(std::memory_order_relaxed))
                    return;
                if (!p.pointDone) {
                    const long long now = steadyMs();
                    if (now - lastMs->load() < 100)
                        return;
                    lastMs->store(now);
                }
                Json doc = Json::object();
                doc.set("type", Json::string("progress"));
                doc.set("id", Json::number(id));
                doc.set("point", Json::string(p.point));
                doc.set("tick", Json::number(std::uint64_t(p.tick)));
                doc.set("instructions",
                        Json::number(p.instructions));
                doc.set("point_done", Json::boolean(p.pointDone));
                doc.set("done",
                        Json::number(std::uint64_t(p.pointsDone)));
                doc.set("total",
                        Json::number(std::uint64_t(p.pointsTotal)));
                enqueueFrame(conn, encodeFrame(doc));
            };
        }
        Json doc = Json::object();
        const auto preRun = std::chrono::steady_clock::now();
        spans->setup = sinceSeconds(workStart, preRun);
        std::chrono::steady_clock::time_point postRun;
        if (viaFleet) {
            doc = opt.fleetRunner(id, sub, cancel, progressFn,
                                  fleetInfo.get());
            postRun = std::chrono::steady_clock::now();
            if (cancel.cancelled())
                return "";
        } else {
            doc.set("bench", Json::string("kserved"));
            doc.set("options", resolvedOptionsJson(sopt));
            SweepOptions ropt = sopt;
            ropt.cancel = &cancel;
            ropt.onProgress = progressFn;
            // Plain jobs share sampled fault populations through the
            // warm store: jobs that differ only in workload/scheme
            // subsets miss the result cache but describe the same
            // die, so it is synthesized once (single-flight) and
            // adopted bit-identically everywhere else. Record/replay
            // jobs must sample their own die — adopting a population
            // skips the sampler's RNG draws, which recordings capture.
            if (!sub.record && !sub.replayRec &&
                opt.warmStoreMb > 0) {
                ropt.warmFaultSource =
                    warmFaultSource(warm, sopt.scenario);
            }
            if (sub.replayRec) {
                // Re-run from the recording and attach the
                // verification verdict; the sweep body itself is the
                // replayed run's.
                const replay::SweepSession s =
                    replay::replaySweep(*sub.replayRec, &ropt);
                postRun = std::chrono::steady_clock::now();
                if (cancel.cancelled())
                    return "";
                const Json body = sweepToJson(sopt, s.result);
                for (const auto &[key, value] : body.members())
                    doc.set(key, value);
                Json rj = Json::object();
                rj.set("verified", Json::boolean(s.verified));
                rj.set("divergence", s.divergence.toJson());
                doc.set("replay", std::move(rj));
            } else if (sub.record) {
                // Capture the run; the recording travels inline in
                // the result document (the daemon writes no files).
                const replay::SweepSession s =
                    replay::recordSweep(ropt);
                postRun = std::chrono::steady_clock::now();
                if (cancel.cancelled())
                    return "";
                const Json body = sweepToJson(sopt, s.result);
                for (const auto &[key, value] : body.members())
                    doc.set(key, value);
                doc.set("recording", s.recording.toJson());
            } else {
                const SweepResult res = runEvaluationSweep(ropt);
                postRun = std::chrono::steady_clock::now();
                if (cancel.cancelled())
                    return "";
                const Json body = sweepToJson(sopt, res);
                for (const auto &[key, value] : body.members())
                    doc.set(key, value);
            }
        }
        spans->run = sinceSeconds(preRun, postRun);
        std::string text = doc.toString(0);
        spans->serializeEnd = std::chrono::steady_clock::now();
        spans->serialize = sinceSeconds(postRun, spans->serializeEnd);
        return text;
    };

    std::string errCode;
    const bool admitted = scheduler.submit(
        id, sub.priority, std::move(work),
        [this](std::uint64_t jid, JobState st,
               const std::string &text, const std::string &jerr) {
            finishJob(jid, st, text, jerr);
        },
        &errCode);
    if (!admitted) {
        {
            std::lock_guard<std::mutex> lock(jobsMtx);
            jobs.erase(id);
        }
        mJobsRejected->inc();
        // The client already holds a "submitted" frame for this id;
        // the rejection is its terminal result (the backpressure
        // reply).
        enqueueFrame(conn, encodeFrame(terminalFrame(
                               id, hash, "rejected", errCode)));
    }
}

void
Server::finishJob(std::uint64_t id, JobState state,
                  const std::string &resultText,
                  const std::string &error)
{
    JobRecord rec;
    {
        std::lock_guard<std::mutex> lock(jobsMtx);
        const auto it = jobs.find(id);
        if (it == jobs.end())
            return;
        rec = it->second;
        jobs.erase(it);
    }
    const auto finish = std::chrono::steady_clock::now();
    const double seconds = sinceSeconds(rec.start, finish);
    mJobSeconds->observe(seconds);
    switch (state) {
      case JobState::Done: mJobsDone->inc(); break;
      case JobState::Failed: mJobsFailed->inc(); break;
      case JobState::Cancelled: mJobsCancelled->inc(); break;
      default: break;
    }

    std::string spansText;
    if (rec.spans && state == JobState::Done) {
        // Reply is the remainder of the submit-to-finish interval,
        // so the six stages tile it exactly.
        rec.spans->reply =
            sinceSeconds(rec.spans->serializeEnd, finish);
        const double stages[6] = {
            rec.spans->decode, rec.spans->queue, rec.spans->setup,
            rec.spans->run,    rec.spans->serialize,
            rec.spans->reply};
        for (std::size_t k = 0; k < 6; ++k)
            mStageSeconds[k]->observe(stages[k]);
        spansText = rec.spans->toJson(seconds).toString(0);
    }

    if (opt.slowJobSeconds > 0 && seconds >= opt.slowJobSeconds) {
        mSlowJobs->inc();
        const JobSpans empty{};
        const JobSpans &sp = rec.spans ? *rec.spans : empty;
        warn("kserved: slow job id=%llu outcome=%s total=%.3fs "
             "decode=%.3fs queue=%.3fs setup=%.3fs run=%.3fs "
             "serialize=%.3fs reply=%.3fs key=%s",
             static_cast<unsigned long long>(id), jobStateName(state),
             seconds, sp.decode, sp.queue, sp.setup, sp.run,
             sp.serialize, sp.reply, rec.hash.c_str());
    }

    std::string fleetText;
    if (rec.fleetInfo && !rec.fleetInfo->isNull())
        fleetText = rec.fleetInfo->toString(0);

    if (state == JobState::Done) {
        if (!rec.noCache)
            cache.insert(rec.canonicalKey,
                         std::make_shared<const std::string>(resultText),
                         resultText.size());
        enqueueFrame(rec.conn,
                     encodeFramePayload(resultFrameText(
                         id, false, rec.hash, resultText, spansText,
                         fleetText)));
    } else {
        Json doc = terminalFrame(id, rec.hash,
                                 state == JobState::Failed
                                     ? "failed"
                                     : "cancelled",
                                 error);
        if (!fleetText.empty())
            doc.set("fleet", *rec.fleetInfo);
        enqueueFrame(rec.conn, encodeFrame(doc));
    }
}

Json
Server::statsJson()
{
    Json doc = Json::object();
    doc.set("build", Json::string(buildId()));
    doc.set("draining",
            Json::boolean(drainFlag.load(std::memory_order_relaxed)));
    doc.set("scheduler", scheduler.stats().toJson());
    doc.set("cache", cache.stats().toJson());
    doc.set("warm_store", warm.stats().toJson());
    // Same members as ever, now read from the bounded histogram
    // (O(1) memory however long the daemon lives) and the registry
    // counters. Before the first job finishes the quantiles are
    // undefined: the members stay present (clients key on them) but
    // carry an explicit null, never NaN.
    Json lat = Json::object();
    const std::uint64_t latCount = mJobSeconds->count();
    lat.set("count", Json::number(latCount));
    if (latCount == 0) {
        lat.set("mean_s", Json::null());
        lat.set("p50_s", Json::null());
        lat.set("p99_s", Json::null());
    } else {
        lat.set("mean_s", Json::number(mJobSeconds->mean()));
        lat.set("p50_s", Json::number(mJobSeconds->quantile(0.5)));
        lat.set("p99_s", Json::number(mJobSeconds->quantile(0.99)));
    }
    doc.set("latency", lat);
    Json out = Json::object();
    out.set("cache_hits", Json::number(cache.stats().hits));
    out.set("done", Json::number(mJobsDone->value()));
    out.set("failed", Json::number(mJobsFailed->value()));
    out.set("cancelled", Json::number(mJobsCancelled->value()));
    out.set("rejected", Json::number(mJobsRejected->value()));
    out.set("protocol_errors",
            Json::number(mProtocolErrors->value()));
    out.set("connections", Json::number(mConnections->value()));
    doc.set("outcomes", out);
    if (opt.statsExtra)
        doc.set("fleet", opt.statsExtra());
    return doc;
}

void
declareServerOptions(Options &opts, const ServerOptions &defaults)
{
    opts.add("socket", defaults.socketPath.c_str(),
             "unix socket path (empty switches to TCP)");
    opts.add<unsigned>("port", defaults.port,
                       "TCP port on 127.0.0.1 when socket= is empty "
                       "(0 = ephemeral, printed at startup)")
        .range(0u, 65535u);
    opts.add<unsigned>("threads", defaults.threads,
                       "scheduler worker threads, each running one "
                       "job or fleet campaign at a time (0 = all "
                       "hardware threads)")
        .range(0u, 1024u);
    opts.add<unsigned>("max-conns", unsigned(defaults.maxConns),
                       "concurrent-connection bound; accepts beyond "
                       "it get an \"overloaded\" error frame and are "
                       "closed (0 = unbounded)")
        .range(0u, 65536u);
    opts.add<unsigned>("max-queue", unsigned(defaults.maxQueue),
                       "ready-queue bound; submits beyond it are "
                       "rejected with queue_full")
        .range(1u, 65536u);
    opts.add<unsigned>("cache-entries", unsigned(defaults.cacheEntries),
                       "result-cache capacity (LRU evicted)")
        .range(1u, 1u << 20);
    opts.add<unsigned>("metrics-port", defaults.metricsPort,
                       "serve plain-HTTP GET /metrics (Prometheus "
                       "text) on 127.0.0.1 at this port when set (0 = "
                       "ephemeral, printed at startup; omit to "
                       "disable the listener entirely)")
        .range(0u, 65535u);
    opts.add<std::uint64_t>(
            "slow-job-ms",
            std::uint64_t(std::llround(defaults.slowJobSeconds * 1000)),
            "log a structured warn() with the stage breakdown for "
            "jobs slower than this (0 disables)")
        .range(std::uint64_t{0}, std::uint64_t{86400000});
}

ServerOptions
serverOptions(const Options &opts)
{
    ServerOptions sopt;
    sopt.socketPath = opts.get<std::string>("socket");
    sopt.port = std::uint16_t(opts.get<unsigned>("port"));
    sopt.threads = opts.get<unsigned>("threads");
    sopt.maxConns = opts.get<unsigned>("max-conns");
    sopt.maxQueue = opts.get<unsigned>("max-queue");
    sopt.cacheEntries = opts.get<unsigned>("cache-entries");
    sopt.metricsHttp = opts.has("metrics-port");
    sopt.metricsPort = std::uint16_t(opts.get<unsigned>("metrics-port"));
    sopt.slowJobSeconds =
        double(opts.get<std::uint64_t>("slow-job-ms")) / 1000.0;
    return sopt;
}

namespace
{

Server *gSignalled = nullptr;

void
onSignal(int)
{
    // requestDrain() is async-signal-safe: an atomic store plus a
    // write() on the wake pipe.
    if (gSignalled)
        gSignalled->requestDrain();
}

} // namespace

void
serveUntilDrained(Server &server, const char *name,
                  const std::string &note)
{
    std::string err;
    if (!server.start(&err))
        fatal("%s: %s", name, err.c_str());
    gSignalled = &server;
    std::signal(SIGINT, onSignal);
    std::signal(SIGTERM, onSignal);

    const std::string where =
        server.socketPath().empty()
            ? "127.0.0.1:" + std::to_string(server.boundPort())
            : server.socketPath();
    inform("%s %s: listening on %s%s", name, buildId(), where.c_str(),
           note.c_str());
    if (server.metricsBoundPort() != 0) {
        inform("%s: metrics on http://127.0.0.1:%u/metrics", name,
               unsigned(server.metricsBoundPort()));
    }
    server.waitDone();
}

} // namespace killi::serve
