/**
 * @file
 * Tests for the serving subsystem (src/serve): JobScheduler
 * semantics under deterministic blocking jobs, the content-addressed
 * ContentStore behind both the result cache and the warm store (one
 * table-driven suite, run under an entry bound and a byte bound,
 * plus its single-flight and clear-vs-evict races), and loopback
 * integration against a real in-process Server: daemon results
 * bit-identical to a direct in-process sweep (cold and cached), a
 * 200-request concurrent barrage with a bounded queue, and clean
 * drain semantics over both TCP and Unix sockets.
 */

#include <atomic>
#include <chrono>
#include <cstdio>
#include <functional>
#include <future>
#include <mutex>
#include <netinet/in.h>
#include <poll.h>
#include <sstream>
#include <sys/socket.h>
#include <thread>
#include <unistd.h>
#include <vector>

#include <gtest/gtest.h>

#include "bench/sweep.hh"
#include "common/build_info.hh"
#include "common/hash.hh"
#include "common/log.hh"
#include "fault/fault_model.hh"
#include "metrics/dashboard.hh"
#include "replay/session.hh"
#include "serve/client/client.hh"
#include "serve/scheduler.hh"
#include "serve/server.hh"
#include "serve/store.hh"

using namespace killi;
using namespace killi::serve;

namespace
{

/** A terminal notification captured by a test. */
struct Finish
{
    std::uint64_t id = 0;
    JobState state = JobState::Queued;
    std::string result;
    std::string error;
};

/** Thread-safe collector for JobFinish callbacks. */
class FinishLog
{
  public:
    JobFinish
    sink()
    {
        return [this](std::uint64_t id, JobState st,
                      const std::string &res, const std::string &err) {
            std::lock_guard<std::mutex> lock(mtx);
            entries.push_back({id, st, res, err});
            cv.notify_all();
        };
    }

    /** Block until @p n terminal notifications have arrived. */
    bool
    waitForCount(std::size_t n)
    {
        std::unique_lock<std::mutex> lock(mtx);
        return cv.wait_for(lock, std::chrono::seconds(30),
                           [&] { return entries.size() >= n; });
    }

    std::vector<Finish>
    all() const
    {
        std::lock_guard<std::mutex> lock(mtx);
        return entries;
    }

    Finish
    forId(std::uint64_t id) const
    {
        std::lock_guard<std::mutex> lock(mtx);
        for (const Finish &f : entries)
            if (f.id == id)
                return f;
        ADD_FAILURE() << "no finish recorded for job " << id;
        return {};
    }

  private:
    mutable std::mutex mtx;
    std::condition_variable cv;
    std::vector<Finish> entries;
};

/** A latch the test opens to release blocked job bodies. */
struct Gate
{
    std::promise<void> promise;
    std::shared_future<void> future{promise.get_future().share()};

    void
    open()
    {
        promise.set_value();
    }
};

/** A job body that blocks until the test opens the gate. */
JobWork
blockOn(const std::shared_ptr<Gate> &gate)
{
    return [gate](const CancelToken &) {
        gate->future.wait();
        return std::string("blocked-done");
    };
}

/**
 * Poll @p pred until it holds or the deadline passes. Every former
 * raw `while (!pred) yield()` spin in this file goes through here so
 * a daemon that never reaches the awaited state is a diagnosed
 * failure (@p what names it) instead of a test that hangs until the
 * harness kills it.
 */
::testing::AssertionResult
waitUntil(const std::function<bool()> &pred, const char *what,
          std::chrono::milliseconds deadline =
              std::chrono::seconds(30))
{
    const auto until = std::chrono::steady_clock::now() + deadline;
    while (std::chrono::steady_clock::now() < until) {
        if (pred())
            return ::testing::AssertionSuccess();
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return ::testing::AssertionFailure()
           << "timed out after " << deadline.count()
           << "ms waiting for " << what;
}

/** The fast smoke sweep the CI golden pins (scale 0.02, seed 42). */
Json
smokeSubmit(bool stream)
{
    Json options = Json::object();
    options.set("scale", Json::number(0.02));
    options.set("warmup", Json::number(std::uint64_t{0}));
    options.set("seed", Json::number(std::uint64_t{42}));
    options.set("workloads", Json::string("xsbench,spmv"));
    options.set("schemes", Json::string("DECTED,Killi 1:256"));
    Json req = Json::object();
    req.set("type", Json::string("submit"));
    req.set("options", std::move(options));
    req.set("stream", Json::boolean(stream));
    return req;
}

} // namespace

// ---------------------------------------------------------------
// JobScheduler
// ---------------------------------------------------------------

TEST(JobScheduler, RunsJobAndDeliversResultText)
{
    JobScheduler sched(2, 16);
    FinishLog log;
    ASSERT_TRUE(sched.submit(
        1, 0, [](const CancelToken &) { return std::string("r1"); },
        log.sink(), nullptr));
    // Wait for completion before draining: drain() cancels jobs
    // still sitting in the ready queue.
    ASSERT_TRUE(log.waitForCount(1));
    sched.drain();
    const Finish f = log.forId(1);
    EXPECT_EQ(f.state, JobState::Done);
    EXPECT_EQ(f.result, "r1");
    EXPECT_TRUE(sched.idle());
}

TEST(JobScheduler, FailedJobCarriesExceptionText)
{
    JobScheduler sched(1, 16);
    FinishLog log;
    ASSERT_TRUE(sched.submit(
        7, 0,
        [](const CancelToken &) -> std::string {
            throw std::runtime_error("boom");
        },
        log.sink(), nullptr));
    ASSERT_TRUE(log.waitForCount(1));
    sched.drain();
    const Finish f = log.forId(7);
    EXPECT_EQ(f.state, JobState::Failed);
    EXPECT_EQ(f.error, "boom");
}

TEST(JobScheduler, HigherPriorityRunsFirst)
{
    JobScheduler sched(1, 16);
    FinishLog log;
    auto gate = std::make_shared<Gate>();
    std::vector<std::uint64_t> order;
    std::mutex orderMtx;
    const auto record = [&](std::uint64_t id) {
        return [&, id](const CancelToken &) {
            std::lock_guard<std::mutex> lock(orderMtx);
            order.push_back(id);
            return std::string();
        };
    };
    // Occupy the single worker, then queue low before high.
    ASSERT_TRUE(sched.submit(1, 0, blockOn(gate), log.sink(), nullptr));
    ASSERT_TRUE(sched.submit(2, -5, record(2), log.sink(), nullptr));
    ASSERT_TRUE(sched.submit(3, 5, record(3), log.sink(), nullptr));
    ASSERT_TRUE(sched.submit(4, 0, record(4), log.sink(), nullptr));
    gate->open();
    ASSERT_TRUE(log.waitForCount(4));
    sched.drain();
    ASSERT_EQ(order.size(), 3u);
    EXPECT_EQ(order[0], 3u); // priority 5
    EXPECT_EQ(order[1], 4u); // priority 0
    EXPECT_EQ(order[2], 2u); // priority -5
}

TEST(JobScheduler, CancelQueuedJobNeverRuns)
{
    JobScheduler sched(1, 16);
    FinishLog log;
    auto gate = std::make_shared<Gate>();
    std::atomic<bool> ran{false};
    ASSERT_TRUE(sched.submit(1, 0, blockOn(gate), log.sink(), nullptr));
    ASSERT_TRUE(waitUntil([&] { return sched.stats().running > 0; },
                          "job 1 to start running"));
    ASSERT_TRUE(sched.submit(
        2, 0,
        [&](const CancelToken &) {
            ran = true;
            return std::string();
        },
        log.sink(), nullptr));
    EXPECT_TRUE(sched.cancel(2));
    // The terminal notification for a queued cancel fires before
    // cancel() returns.
    const Finish f = log.forId(2);
    EXPECT_EQ(f.state, JobState::Cancelled);
    EXPECT_EQ(f.error, "cancelled");
    gate->open();
    sched.drain();
    EXPECT_FALSE(ran.load());
    EXPECT_FALSE(sched.cancel(2)); // already finished
}

TEST(JobScheduler, CancelRunningTripsToken)
{
    JobScheduler sched(1, 16);
    FinishLog log;
    std::atomic<bool> started{false};
    ASSERT_TRUE(sched.submit(
        1, 0,
        [&](const CancelToken &cancel) {
            started = true;
            // Bounded: if the token never trips, the job returns a
            // sentinel and the state assertion below diagnoses it,
            // instead of wedging the worker (and drain()) forever.
            const auto deadline = std::chrono::steady_clock::now() +
                                  std::chrono::seconds(30);
            while (!cancel.cancelled() &&
                   std::chrono::steady_clock::now() < deadline)
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(1));
            return std::string(cancel.cancelled()
                                   ? "partial"
                                   : "never-cancelled");
        },
        log.sink(), nullptr));
    ASSERT_TRUE(waitUntil([&] { return started.load(); },
                          "job 1 to enter its body"));
    EXPECT_TRUE(sched.cancel(1));
    sched.drain();
    const Finish f = log.forId(1);
    EXPECT_EQ(f.state, JobState::Cancelled);
    EXPECT_EQ(f.result, ""); // partial result is discarded
}

TEST(JobScheduler, BoundedQueueRejectsWithQueueFull)
{
    JobScheduler sched(1, 1);
    FinishLog log;
    auto gate = std::make_shared<Gate>();
    ASSERT_TRUE(sched.submit(1, 0, blockOn(gate), log.sink(), nullptr));
    // Worker may briefly hold job 1 in the ready queue; wait until
    // it is actually running so the bound applies to job 2 alone.
    ASSERT_TRUE(waitUntil([&] { return sched.stats().running > 0; },
                          "job 1 to start running"));
    ASSERT_TRUE(sched.submit(2, 0, blockOn(gate), log.sink(), nullptr));
    std::string code;
    EXPECT_FALSE(sched.submit(3, 0, blockOn(gate), log.sink(), &code));
    EXPECT_EQ(code, "queue_full");
    EXPECT_EQ(sched.stats().rejected, 1u);
    gate->open();
    ASSERT_TRUE(log.waitForCount(2));
    sched.drain();
}

TEST(JobScheduler, DrainCancelsQueuedAndRejectsNewSubmits)
{
    JobScheduler sched(1, 16);
    FinishLog log;
    auto gate = std::make_shared<Gate>();
    ASSERT_TRUE(sched.submit(1, 0, blockOn(gate), log.sink(), nullptr));
    ASSERT_TRUE(waitUntil([&] { return sched.stats().running > 0; },
                          "job 1 to start running"));
    ASSERT_TRUE(sched.submit(2, 0, blockOn(gate), log.sink(), nullptr));
    sched.beginDrain();
    EXPECT_TRUE(sched.draining());
    // Queued job 2 was cancelled with the drain code...
    const Finish f = log.forId(2);
    EXPECT_EQ(f.state, JobState::Cancelled);
    EXPECT_EQ(f.error, "draining");
    // ...new submits bounce...
    std::string code;
    EXPECT_FALSE(sched.submit(3, 0, blockOn(gate), log.sink(), &code));
    EXPECT_EQ(code, "draining");
    // ...and the in-flight job still finishes normally.
    gate->open();
    sched.drain();
    EXPECT_EQ(log.forId(1).state, JobState::Done);
}

TEST(JobScheduler, StateTracksLifecycle)
{
    JobScheduler sched(1, 16);
    FinishLog log;
    auto gate = std::make_shared<Gate>();
    ASSERT_TRUE(sched.submit(1, 0, blockOn(gate), log.sink(), nullptr));
    bool found = false;
    sched.state(1, &found);
    EXPECT_TRUE(found);
    sched.state(99, &found);
    EXPECT_FALSE(found);
    gate->open();
    ASSERT_TRUE(log.waitForCount(1));
    sched.drain();
    EXPECT_EQ(sched.state(1, &found), JobState::Done);
    EXPECT_TRUE(found);
}

// ---------------------------------------------------------------
// ContentStore: the one store behind the result cache and the warm
// store. The table-driven cases run once per bound kind.
// ---------------------------------------------------------------

namespace
{

/** Every test value is this long, so both bounds below hold exactly
 *  two of them. */
constexpr std::size_t kValueBytes = 8;

struct BoundCase
{
    const char *name;
    /** Holds exactly two test values. */
    ResultStore::Bounds bounds;
    /** Holds none: even a single test value exceeds it. */
    ResultStore::Bounds tight;
};

const BoundCase kBoundCases[] = {
    {"entry bound", {.maxEntries = 2}, {.maxEntries = 0}},
    {"byte bound", {.maxBytes = 2 * kValueBytes},
     {.maxBytes = kValueBytes - 1}},
};

ResultStore::Value
valueOf(const std::string &key)
{
    std::string text = "r:" + key;
    text.resize(kValueBytes, '.');
    return std::make_shared<const std::string>(std::move(text));
}

/** insert() of valueOf(@p key), accounted at its length. */
std::string
put(ResultStore &store, const std::string &key)
{
    return store.insert(key, valueOf(key), kValueBytes);
}

} // namespace

TEST(ContentStore, HitsShareOneStoredValue)
{
    for (const BoundCase &bc : kBoundCases) {
        SCOPED_TRACE(bc.name);
        ResultStore store(bc.bounds);
        const std::string key = "{\"experiment\":\"sweep\",\"seed\":1}";
        std::string hash;
        EXPECT_EQ(store.lookup(key, &hash), nullptr);
        EXPECT_EQ(hash, sha256Hex(key));
        EXPECT_EQ(ResultStore::hashKey(key), hash);
        EXPECT_EQ(put(store, key), hash);
        const ResultStore::Value a = store.lookup(key);
        const ResultStore::Value b = store.lookup(key);
        ASSERT_TRUE(a);
        EXPECT_EQ(*a, *valueOf(key));
        EXPECT_EQ(a.get(), b.get()); // a refcount, never a copy
        const StoreStats s = store.stats();
        EXPECT_EQ(s.hits, 2u);
        EXPECT_EQ(s.misses, 1u);
        EXPECT_EQ(s.insertions, 1u);
        EXPECT_EQ(s.bytes, kValueBytes);
        EXPECT_DOUBLE_EQ(s.hitRate(), 2.0 / 3.0);
    }
}

TEST(ContentStore, EvictsLeastRecentlyUsedUnderEitherBound)
{
    for (const BoundCase &bc : kBoundCases) {
        SCOPED_TRACE(bc.name);
        ResultStore store(bc.bounds);
        put(store, "a");
        put(store, "b");
        ASSERT_TRUE(store.lookup("a")); // refresh a; b is now LRU
        put(store, "c");                // evicts b
        EXPECT_TRUE(store.lookup("a"));
        EXPECT_FALSE(store.lookup("b"));
        EXPECT_TRUE(store.lookup("c"));
        const StoreStats s = store.stats();
        EXPECT_EQ(s.evictions, 1u);
        EXPECT_EQ(s.entries, 2u);
        EXPECT_EQ(s.bytes, 2 * kValueBytes);
    }
}

TEST(ContentStore, NewestEntryIsKeptEvenAloneOverTheBound)
{
    for (const BoundCase &bc : kBoundCases) {
        SCOPED_TRACE(bc.name);
        ResultStore store(bc.tight);
        put(store, "a");
        put(store, "b"); // evicts a, keeps b though it exceeds
        EXPECT_FALSE(store.lookup("a"));
        EXPECT_TRUE(store.lookup("b"));
        const StoreStats s = store.stats();
        EXPECT_EQ(s.entries, 1u);
        EXPECT_EQ(s.evictions, 1u);
    }
}

TEST(ContentStore, OverwriteIsNotAnInsertion)
{
    for (const BoundCase &bc : kBoundCases) {
        SCOPED_TRACE(bc.name);
        ResultStore store(bc.bounds);
        put(store, "a");
        put(store, "b");
        const ResultStore::Value fresh = valueOf("a");
        store.insert("a", fresh, kValueBytes); // a becomes MRU
        StoreStats s = store.stats();
        EXPECT_EQ(s.insertions, 2u);
        EXPECT_EQ(s.entries, 2u);
        EXPECT_EQ(s.bytes, 2 * kValueBytes);
        EXPECT_EQ(store.lookup("a").get(), fresh.get()); // newest kept
        put(store, "c"); // evicts b, the LRU after the overwrite
        EXPECT_FALSE(store.lookup("b"));
        EXPECT_EQ(store.stats().evictions, 1u);
    }
}

TEST(ContentStore, LookupByHashCountsHitsButNotMisses)
{
    for (const BoundCase &bc : kBoundCases) {
        SCOPED_TRACE(bc.name);
        ResultStore store(bc.bounds);
        const std::string hash = put(store, "a");
        const ResultStore::Value byHash = store.lookupByHash(hash);
        ASSERT_TRUE(byHash);
        EXPECT_EQ(byHash.get(), store.lookup("a").get());
        EXPECT_EQ(store.lookupByHash(ResultStore::hashKey("absent")),
                  nullptr);
        const StoreStats s = store.stats();
        EXPECT_EQ(s.hits, 2u);
        EXPECT_EQ(s.misses, 0u);
    }
}

TEST(ContentStore, ClearZeroesResidentStateAndCountsEvictions)
{
    for (const BoundCase &bc : kBoundCases) {
        SCOPED_TRACE(bc.name);
        ResultStore store(bc.bounds);
        put(store, "a");
        put(store, "b");
        put(store, "c"); // one eviction by the bound
        StoreStats s = store.stats();
        const std::uint64_t evictedByBound = s.evictions;
        const std::size_t resident = s.entries;
        ASSERT_EQ(evictedByBound, 1u);
        store.clear();
        s = store.stats();
        EXPECT_EQ(s.entries, 0u);
        EXPECT_EQ(s.bytes, 0u);
        EXPECT_EQ(s.insertions, 3u);
        // Cleared entries count as evictions on top of the bound's.
        EXPECT_EQ(s.evictions, evictedByBound + resident);
        EXPECT_FALSE(store.lookup("c"));
    }
}

TEST(ContentStore, StatsJsonNamesOnlyTheBoundsThatAreSet)
{
    const Json entries =
        ResultStore({.maxEntries = 4}).stats().toJson();
    EXPECT_EQ(entries.at("max_entries").asInt(), 4);
    EXPECT_FALSE(entries.contains("max_bytes"));
    const Json bytes = ResultStore({.maxBytes = 64}).stats().toJson();
    EXPECT_EQ(bytes.at("max_bytes").asInt(), 64);
    EXPECT_FALSE(bytes.contains("max_entries"));
    for (const char *k : {"hits", "misses", "insertions", "evictions",
                          "entries", "bytes", "hit_rate"})
        EXPECT_TRUE(bytes.contains(k)) << k;
}

TEST(ContentStore, SingleFlightSynthesizesOnceAcrossConcurrentCallers)
{
    DieStore store({.maxBytes = 64 << 20});
    std::atomic<int> syntheses{0};
    Gate gate;
    const DieStore::Synthesizer synth = [&] {
        ++syntheses;
        gate.future.wait();
        return std::make_pair(
            std::make_shared<const FaultPopulation>(FaultPopulation{
                {FaultCell{7, 0.5f, true, FaultKind::Writeability}}}),
            std::size_t(64));
    };
    const std::string key = "warm-test-key";
    DieStore::Value a, b;
    std::thread first([&] { a = store.getOrSynthesize(key, synth); });
    // The second caller must block on the first's in-flight
    // synthesis, not run its own.
    EXPECT_TRUE(waitUntil([&] { return syntheses.load() == 1; },
                          "first synthesis to start"));
    std::thread second([&] { b = store.getOrSynthesize(key, synth); });
    gate.open();
    first.join();
    second.join();
    EXPECT_EQ(syntheses.load(), 1);
    ASSERT_TRUE(a && b);
    EXPECT_EQ(a.get(), b.get()); // the one stored population, shared
    const StoreStats s = store.stats();
    EXPECT_EQ(s.misses, 1u); // misses == syntheses, exactly
    EXPECT_EQ(s.hits, 1u);   // the waiter counts a hit
    EXPECT_EQ(s.insertions, 1u);
    EXPECT_EQ(s.entries, 1u);
    EXPECT_EQ(s.bytes, 64u);
}

TEST(ContentStore, ThrowingSynthesizerReleasesItsClaimToAWaiter)
{
    ResultStore store({.maxEntries = 4});
    std::atomic<int> syntheses{0};
    Gate gate;
    const ResultStore::Synthesizer synth = [&] {
        if (++syntheses == 1) {
            gate.future.wait();
            throw std::runtime_error("synthesis failed");
        }
        return std::make_pair(valueOf("k"), kValueBytes);
    };
    std::atomic<bool> firstThrew{false};
    std::thread first([&] {
        try {
            store.getOrSynthesize("k", synth);
        } catch (const std::runtime_error &) {
            firstThrew = true;
        }
    });
    EXPECT_TRUE(waitUntil([&] { return syntheses.load() == 1; },
                          "first synthesis to start"));
    ResultStore::Value waited;
    std::atomic<bool> waiterReturned{false};
    std::thread second([&] {
        waited = store.getOrSynthesize("k", synth);
        waiterReturned = true;
    });
    // Give the second caller time to block on the claim. The
    // assertions below hold either way; the pause only makes the
    // wait-then-retry path the one that runs.
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    gate.open();
    first.join();
    EXPECT_TRUE(waitUntil([&] { return waiterReturned.load(); },
                          "the waiter to synthesize after the throw"));
    second.join();
    ASSERT_TRUE(waited);
    EXPECT_TRUE(firstThrew);
    EXPECT_EQ(syntheses.load(), 2);
    EXPECT_EQ(*waited, *valueOf("k"));
    StoreStats s = store.stats();
    EXPECT_EQ(s.misses, 2u);
    EXPECT_EQ(s.insertions, 1u);
    EXPECT_EQ(store.getOrSynthesize("k", synth).get(), waited.get());
    s = store.stats();
    EXPECT_EQ(s.hits, 1u);
    EXPECT_EQ(syntheses.load(), 2);
}

TEST(ContentStore, ClearRacingEvictionAccountsEveryEntryOnce)
{
    // Two inserters drive the entry bound while a third thread
    // clears: every inserted entry must leave exactly once, by
    // eviction or by clear, and the gauges must end at 0.
    ResultStore store({.maxEntries = 4});
    constexpr int kPerThread = 200;
    std::atomic<bool> done{false};
    const auto inserter = [&](const char *tag) {
        for (int i = 0; i < kPerThread; ++i)
            put(store, std::string(tag) + std::to_string(i));
    };
    std::thread clearer([&] {
        while (!done.load())
            store.clear();
    });
    std::thread a(inserter, "a");
    std::thread b(inserter, "b");
    a.join();
    b.join();
    done = true;
    clearer.join();
    store.clear();
    const StoreStats s = store.stats();
    EXPECT_EQ(s.insertions, 2u * kPerThread);
    EXPECT_EQ(s.evictions, s.insertions);
    EXPECT_EQ(s.entries, 0u);
    EXPECT_EQ(s.bytes, 0u);
}

// ---------------------------------------------------------------
// Server loopback integration
// ---------------------------------------------------------------

namespace
{

/** Boot a TCP server on an ephemeral port and connect a client. */
struct Loopback
{
    Server server;
    Client client;

    explicit Loopback(unsigned threads = 2, std::size_t maxQueue = 8)
        : server([&] {
              ServerOptions so;
              so.port = 0;
              so.threads = threads;
              so.maxQueue = maxQueue;
              return so;
          }())
    {
        std::string err;
        if (!server.start(&err))
            ADD_FAILURE() << "server.start: " << err;
        if (!client.connectTcp(server.boundPort(), &err))
            ADD_FAILURE() << "connect: " << err;
    }
};

/**
 * A bare TCP connection to the daemon, for frames whose payload text
 * no Json value serializes to (an integer beyond int64, say). Replies
 * are decoded as the client would; recv() gives up after 10 s.
 */
class RawConnection
{
  public:
    explicit RawConnection(std::uint16_t port)
        : fd(::socket(AF_INET, SOCK_STREAM, 0))
    {
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_port = htons(port);
        addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
        if (fd < 0 ||
            ::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                      sizeof(addr)) != 0)
            ADD_FAILURE() << "raw connect to port " << port;
    }

    ~RawConnection()
    {
        if (fd >= 0)
            ::close(fd);
    }

    bool
    sendPayload(const std::string &payload)
    {
        const std::string bytes = encodeFramePayload(payload);
        return ::send(fd, bytes.data(), bytes.size(), MSG_NOSIGNAL) ==
               ssize_t(bytes.size());
    }

    bool
    recv(Json &frame)
    {
        char buf[4096];
        while (true) {
            const FrameDecoder::Status st = decoder.next(frame);
            if (st != FrameDecoder::Status::NeedMore)
                return st == FrameDecoder::Status::Frame;
            pollfd pfd{fd, POLLIN, 0};
            if (::poll(&pfd, 1, 10000) != 1)
                return false;
            const ssize_t n = ::read(fd, buf, sizeof(buf));
            if (n <= 0)
                return false;
            decoder.feed(buf, std::size_t(n));
        }
    }

  private:
    int fd;
    FrameDecoder decoder;
};

} // namespace

TEST(ServeIntegration, ResultMatchesDirectRunAndCacheHitIsIdentical)
{
    // The same point computed directly, in-process.
    SweepOptions direct;
    direct.scale = 0.02;
    direct.warmupPasses = 0;
    direct.seed = 42;
    direct.workloads = {"xsbench", "spmv"};
    direct.schemes = {"DECTED", "Killi 1:256"};
    direct.jobs = 1;
    const SweepResult res = runEvaluationSweep(direct);
    const std::string directWorkloads =
        sweepToJson(direct, res).at("workloads").toString(0);

    Loopback lo;
    ScopedLogCapture quiet; // swallow the daemon's progress lines

    Json cold;
    std::string err;
    ASSERT_TRUE(lo.client.submit(smokeSubmit(false), cold, {}, &err))
        << err;
    ASSERT_EQ(cold.at("type").asString(), "result");
    ASSERT_EQ(cold.at("outcome").asString(), "done");
    EXPECT_FALSE(cold.at("cached").asBool());

    // (a) The daemon's deterministic subset is bit-identical to the
    // direct run (same serializer, equal trees, equal bytes).
    EXPECT_EQ(cold.at("result").at("workloads").toString(0),
              directWorkloads);

    // (b) The second submit is answered from the cache, and its
    // result document is the stored bytes of the first reply.
    Json cached;
    ASSERT_TRUE(
        lo.client.submit(smokeSubmit(false), cached, {}, &err))
        << err;
    ASSERT_EQ(cached.at("outcome").asString(), "done");
    EXPECT_TRUE(cached.at("cached").asBool());
    EXPECT_EQ(cached.at("key").asString(), cold.at("key").asString());
    EXPECT_EQ(cached.at("result").toString(0),
              cold.at("result").toString(0));

    lo.server.stop();
}

TEST(ServeIntegration, SubmittedPrecedesResultAndCarriesKey)
{
    Loopback lo;
    ScopedLogCapture quiet;
    ASSERT_TRUE(lo.client.send(smokeSubmit(false)));
    Json frame;
    ASSERT_TRUE(lo.client.recv(frame));
    EXPECT_EQ(frame.at("type").asString(), "submitted");
    const std::string key = frame.at("key").asString();
    EXPECT_EQ(key.size(), 64u); // sha256 hex
    ASSERT_TRUE(lo.client.recv(frame));
    EXPECT_EQ(frame.at("type").asString(), "result");
    EXPECT_EQ(frame.at("key").asString(), key);
    lo.server.stop();
}

TEST(ServeIntegration, CancelRunningJobYieldsCancelledOutcome)
{
    Loopback lo(1);
    ScopedLogCapture quiet;

    // A multi-point sweep with progress streaming: after the first
    // progress frame the job is mid-campaign, and the cancel token
    // is polled between the remaining points.
    Json req = smokeSubmit(true);
    Json options = Json::object();
    options.set("scale", Json::number(0.05));
    options.set("warmup", Json::number(std::uint64_t{0}));
    options.set("seed", Json::number(std::uint64_t{42}));
    options.set("workloads", Json::string("xsbench,spmv"));
    options.set("schemes", Json::string("DECTED,Killi 1:256"));
    options.set("stats_interval", Json::number(std::uint64_t{2000}));
    req.set("options", std::move(options));

    // Every receive below is deadline-bounded: a daemon that stops
    // answering mid-cancel fails the test with the frame it was
    // waiting for, instead of hanging on a blocking recv().
    constexpr int kRecvMs = 30000;
    std::string rerr;
    ASSERT_TRUE(lo.client.send(req));
    Json frame;
    ASSERT_TRUE(lo.client.recvWithin(frame, kRecvMs, &rerr))
        << "waiting for submitted: " << rerr;
    ASSERT_EQ(frame.at("type").asString(), "submitted");
    const std::uint64_t id =
        std::uint64_t(frame.at("id").asDouble());

    ASSERT_TRUE(lo.client.recvWithin(frame, kRecvMs, &rerr))
        << "waiting for first progress: " << rerr;
    ASSERT_EQ(frame.at("type").asString(), "progress");

    Json cancel = Json::object();
    cancel.set("type", Json::string("cancel"));
    cancel.set("id", Json::number(id));
    ASSERT_TRUE(lo.client.send(cancel));

    bool sawCancelReply = false;
    // Progress frames already in flight may precede the cancel
    // reply; the terminal result must arrive within the deadline
    // regardless, and the frame budget catches a daemon that streams
    // forever instead of honouring the cancel.
    for (int frames = 0;; ++frames) {
        ASSERT_LT(frames, 10000)
            << "no terminal result after " << frames << " frames";
        ASSERT_TRUE(lo.client.recvWithin(frame, kRecvMs, &rerr))
            << "waiting for cancel_reply/result: " << rerr;
        const std::string &type = frame.at("type").asString();
        if (type == "cancel_reply") {
            EXPECT_TRUE(frame.at("cancelled").asBool());
            sawCancelReply = true;
        } else if (type == "result") {
            break;
        }
    }
    EXPECT_TRUE(sawCancelReply);
    EXPECT_EQ(frame.at("outcome").asString(), "cancelled");
    lo.server.stop();
}

TEST(ServeIntegration, BadRequestGetsErrorAndServerKeepsServing)
{
    Loopback lo;
    Json req = Json::object();
    req.set("type", Json::string("submit"));
    Json options = Json::object();
    options.set("workloads", Json::string("not_a_workload"));
    req.set("options", std::move(options));
    ASSERT_TRUE(lo.client.send(req));
    Json frame;
    ASSERT_TRUE(lo.client.recv(frame));
    EXPECT_EQ(frame.at("type").asString(), "error");
    EXPECT_EQ(frame.at("code").asString(), "bad_request");

    Json ping = Json::object();
    ping.set("type", Json::string("ping"));
    ASSERT_TRUE(lo.client.send(ping));
    ASSERT_TRUE(lo.client.recv(frame));
    EXPECT_EQ(frame.at("type").asString(), "pong");
    lo.server.stop();
}

TEST(ServeIntegration, LibraryErrorFailsTheJobAndServerKeepsServing)
{
    // A job body that reads an absent member: the Json accessor
    // throws, so the job ends "failed" and the daemon lives on.
    ServerOptions so;
    so.port = 0;
    so.threads = 1;
    so.fleetRunner = [](std::uint64_t, const SubmitRequest &,
                        const CancelToken &, const FleetProgressFn &,
                        Json *) -> Json {
        return Json::object().at("workloads");
    };
    Server server(so);
    std::string err;
    ASSERT_TRUE(server.start(&err)) << err;
    Client client;
    ASSERT_TRUE(client.connectTcp(server.boundPort(), &err)) << err;
    ASSERT_TRUE(client.send(smokeSubmit(false)));
    Json frame;
    do {
        ASSERT_TRUE(client.recvWithin(frame, 30000, &err)) << err;
    } while (frame.at("type").asString() == "submitted");
    ASSERT_EQ(frame.at("type").asString(), "result")
        << frame.toString(0);
    EXPECT_EQ(frame.at("outcome").asString(), "failed");
    EXPECT_EQ(frame.at("error").asString(),
              "json: object has no member \"workloads\"");

    Json ping = Json::object();
    ping.set("type", Json::string("ping"));
    ASSERT_TRUE(client.send(ping));
    ASSERT_TRUE(client.recvWithin(frame, 30000, &err)) << err;
    EXPECT_EQ(frame.at("type").asString(), "pong");
    server.stop();
}

TEST(ServeIntegration, SubmitPriorityMustBeAnIntegerInRange)
{
    const auto submitWith = [](double priority) {
        Json frame = Json::object();
        frame.set("type", Json::string("submit"));
        frame.set("priority", Json::number(priority));
        return frame;
    };
    for (const double p : {-1000.0, 0.0, 1000.0}) {
        SubmitRequest req;
        std::string err;
        EXPECT_TRUE(parseSubmit(submitWith(p), req, err))
            << p << ": " << err;
        EXPECT_EQ(req.priority, int(p));
    }
    // A fractional priority is refused, not truncated.
    for (const double p : {2.5, 1000.5, -0.5, 1001.0}) {
        SubmitRequest req;
        std::string err;
        EXPECT_FALSE(parseSubmit(submitWith(p), req, err)) << p;
        EXPECT_NE(err.find("\"priority\""), std::string::npos) << err;
    }

    // Over the wire the rejection is a bad_request frame.
    Loopback lo;
    ASSERT_TRUE(lo.client.send(submitWith(2.5)));
    Json frame;
    ASSERT_TRUE(lo.client.recv(frame));
    EXPECT_EQ(frame.at("type").asString(), "error");
    EXPECT_EQ(frame.at("code").asString(), "bad_request");
    lo.server.stop();
}

TEST(ServeIntegration, StatusAndCancelIdMustBeANonNegativeInteger)
{
    Loopback lo;
    const auto frameWith = [](const char *type, Json id) {
        Json frame = Json::object();
        frame.set("type", Json::string(type));
        frame.set("id", std::move(id));
        return frame;
    };
    // A double is never read as some nearby job id, however close
    // to an integer it is.
    const Json badIds[] = {Json::number(1e300), Json::number(2.5),
                           Json::number(std::int64_t{-1}),
                           Json::string("3")};
    Json frame;
    for (const char *type : {"status", "cancel"}) {
        for (const Json &id : badIds) {
            ASSERT_TRUE(lo.client.send(frameWith(type, id)));
            ASSERT_TRUE(lo.client.recv(frame));
            EXPECT_EQ(frame.at("type").asString(), "error")
                << type << " " << id.toString(0);
            EXPECT_EQ(frame.at("code").asString(), "bad_request")
                << type << " " << id.toString(0);
        }
    }

    ASSERT_TRUE(lo.client.send(
        frameWith("status", Json::number(std::uint64_t{3}))));
    ASSERT_TRUE(lo.client.recv(frame));
    EXPECT_EQ(frame.at("type").asString(), "status_reply");
    EXPECT_EQ(frame.at("id").asInt(), 3);
    EXPECT_FALSE(frame.at("known").asBool());

    // An id beyond int64 is still valid JSON: it is a bad_request,
    // not a protocol error that would close the connection (and
    // cancel its jobs). The status id 3 after it on the same
    // connection shows the connection stayed open.
    RawConnection raw(lo.server.boundPort());
    for (const char *type : {"status", "cancel"}) {
        ASSERT_TRUE(raw.sendPayload(std::string("{\"type\":\"") + type +
                                    "\",\"id\":99999999999999999999}"));
        ASSERT_TRUE(raw.recv(frame)) << type;
        EXPECT_EQ(frame.at("type").asString(), "error") << type;
        EXPECT_EQ(frame.at("code").asString(), "bad_request") << type;
    }
    ASSERT_TRUE(raw.sendPayload(
        frameWith("status", Json::number(std::uint64_t{3})).toString(0)));
    ASSERT_TRUE(raw.recv(frame));
    EXPECT_EQ(frame.at("type").asString(), "status_reply");
    EXPECT_EQ(frame.at("id").asInt(), 3);
    lo.server.stop();
}

TEST(ServeIntegration, ReconnectedClientDropsTheOldConnectionsBytes)
{
    // A listener whose one connection gets half a frame, then EOF.
    const int listener = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    socklen_t len = sizeof(addr);
    ASSERT_TRUE(listener >= 0 &&
                ::bind(listener, reinterpret_cast<sockaddr *>(&addr),
                       sizeof(addr)) == 0 &&
                ::listen(listener, 1) == 0 &&
                ::getsockname(listener,
                              reinterpret_cast<sockaddr *>(&addr),
                              &len) == 0);
    Client client;
    std::string err;
    ASSERT_TRUE(client.connectTcp(ntohs(addr.sin_port), &err)) << err;
    const int peer = ::accept(listener, nullptr, nullptr);
    ASSERT_GE(peer, 0);
    const std::string bytes = encodeFramePayload("{\"type\":\"pong\"}");
    ASSERT_EQ(::send(peer, bytes.data(), bytes.size() / 2, MSG_NOSIGNAL),
              ssize_t(bytes.size() / 2));
    ::close(peer);
    ::close(listener);
    Json frame;
    EXPECT_FALSE(client.recvWithin(frame, 5000, &err));

    // The same Client, reconnected to a daemon, reads the daemon's
    // reply and not the stale half frame.
    Loopback lo;
    ASSERT_TRUE(client.connectTcp(lo.server.boundPort(), &err)) << err;
    Json ping = Json::object();
    ping.set("type", Json::string("ping"));
    ASSERT_TRUE(client.send(ping, &err)) << err;
    ASSERT_TRUE(client.recvWithin(frame, 5000, &err)) << err;
    EXPECT_EQ(frame.at("type").asString(), "pong");
}

TEST(ServeIntegration, DrainRequestAcksFlushesAndCloses)
{
    ServerOptions so;
    so.socketPath = "serve_test_drain.sock";
    so.threads = 1;
    Server server(so);
    std::string err;
    ASSERT_TRUE(server.start(&err)) << err;

    Client client;
    ASSERT_TRUE(client.connectUnix(so.socketPath, &err)) << err;
    Json drain = Json::object();
    drain.set("type", Json::string("drain"));
    ASSERT_TRUE(client.send(drain));
    Json frame;
    ASSERT_TRUE(client.recv(frame));
    EXPECT_EQ(frame.at("type").asString(), "draining");
    // With nothing in flight the daemon flushes and closes.
    EXPECT_FALSE(client.recv(frame));
    server.waitDone();
    EXPECT_NE(::access(so.socketPath.c_str(), F_OK), 0)
        << "socket not unlinked after drain";
}

TEST(ServeIntegration, FailedStartRemovesTheSocketItBound)
{
    // Hold a loopback port so the metrics bind fails after the Unix
    // socket is already bound.
    const int holder = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(holder, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = 0;
    ASSERT_EQ(::bind(holder, reinterpret_cast<sockaddr *>(&addr),
                     sizeof(addr)),
              0);
    ASSERT_EQ(::listen(holder, 1), 0);
    socklen_t len = sizeof(addr);
    ASSERT_EQ(::getsockname(holder, reinterpret_cast<sockaddr *>(&addr),
                            &len),
              0);

    ServerOptions so;
    so.socketPath = "serve_test_failed_start.sock";
    so.metricsHttp = true;
    so.metricsPort = ntohs(addr.sin_port);
    Server server(so);
    std::string err;
    EXPECT_FALSE(server.start(&err));
    EXPECT_NE(err.find("bind metrics"), std::string::npos) << err;
    EXPECT_NE(::access(so.socketPath.c_str(), F_OK), 0)
        << "failed start left its socket file behind";
    ::close(holder);
}

TEST(ServeIntegration, FetchAddressesTheCacheByContentHash)
{
    Loopback lo;
    ScopedLogCapture quiet;

    // Compute once; the submitted frame carries the content hash a
    // fleet peer would hold.
    ASSERT_TRUE(lo.client.send(smokeSubmit(false)));
    Json frame;
    ASSERT_TRUE(lo.client.recv(frame));
    ASSERT_EQ(frame.at("type").asString(), "submitted");
    const std::string key = frame.at("key").asString();
    ASSERT_TRUE(lo.client.recv(frame));
    ASSERT_EQ(frame.at("type").asString(), "result");
    const std::string resultText = frame.at("result").toString(0);

    // A fetch of that hash returns the stored bytes verbatim.
    Json fetch = Json::object();
    fetch.set("type", Json::string("fetch"));
    fetch.set("key", Json::string(key));
    ASSERT_TRUE(lo.client.send(fetch));
    ASSERT_TRUE(lo.client.recv(frame));
    EXPECT_EQ(frame.at("type").asString(), "fetch_reply");
    EXPECT_TRUE(frame.at("found").asBool());
    EXPECT_EQ(frame.at("key").asString(), key);
    EXPECT_EQ(frame.at("result").toString(0), resultText);

    // An unknown (but well-formed) hash is a clean not-found, not
    // an error: the peer falls back to recomputing.
    fetch.set("key", Json::string(std::string(64, '0')));
    ASSERT_TRUE(lo.client.send(fetch));
    ASSERT_TRUE(lo.client.recv(frame));
    EXPECT_EQ(frame.at("type").asString(), "fetch_reply");
    EXPECT_FALSE(frame.at("found").asBool());

    // A malformed key is a bad request; the connection survives.
    fetch.set("key", Json::string("not-a-hash"));
    ASSERT_TRUE(lo.client.send(fetch));
    ASSERT_TRUE(lo.client.recv(frame));
    EXPECT_EQ(frame.at("type").asString(), "error");
    EXPECT_EQ(frame.at("code").asString(), "bad_request");
    Json ping = Json::object();
    ping.set("type", Json::string("ping"));
    ASSERT_TRUE(lo.client.send(ping));
    ASSERT_TRUE(lo.client.recv(frame));
    EXPECT_EQ(frame.at("type").asString(), "pong");
    lo.server.stop();
}

TEST(ServeIntegration, ConcurrentClientsGetIdenticalCachedBytes)
{
    ServerOptions so;
    so.port = 0;
    so.threads = 2;
    so.maxQueue = 16;
    Server server(so);
    std::string err;
    ASSERT_TRUE(server.start(&err)) << err;
    ScopedLogCapture quiet;

    // Seed the cache once, then concurrent clients submit the same
    // job: every connection must get the identical cached bytes.
    Client seed;
    ASSERT_TRUE(seed.connectTcp(server.boundPort(), &err)) << err;
    Json cold;
    ASSERT_TRUE(seed.submit(smokeSubmit(false), cold, {}, &err))
        << err;
    const std::string want = cold.at("result").toString(0);

    constexpr unsigned kClients = 8;
    std::vector<std::thread> threads;
    std::atomic<unsigned> identical{0};
    for (unsigned i = 0; i < kClients; ++i)
        threads.emplace_back([&] {
            Client c;
            std::string cerr;
            Json reply;
            if (c.connectTcp(server.boundPort(), &cerr) &&
                c.submit(smokeSubmit(false), reply, {}, &cerr) &&
                reply.at("result").toString(0) == want)
                identical.fetch_add(1);
        });
    for (std::thread &t : threads)
        t.join();
    EXPECT_EQ(identical.load(), kClients);
    server.stop();
}

TEST(ServeIntegration, MaxConnsAnswersExcessAcceptsWithOverloaded)
{
    ServerOptions so;
    so.port = 0;
    so.threads = 1;
    so.maxConns = 1;
    Server server(so);
    std::string err;
    ASSERT_TRUE(server.start(&err)) << err;

    Client first;
    ASSERT_TRUE(first.connectTcp(server.boundPort(), &err)) << err;
    Json ping = Json::object();
    ping.set("type", Json::string("ping"));
    Json frame;
    ASSERT_TRUE(first.send(ping));
    ASSERT_TRUE(first.recv(frame));
    EXPECT_EQ(frame.at("type").asString(), "pong");

    // The second connection is accepted only to be told why it is
    // being turned away, then closed.
    Client second;
    ASSERT_TRUE(second.connectTcp(server.boundPort(), &err)) << err;
    ASSERT_TRUE(second.recv(frame));
    EXPECT_EQ(frame.at("type").asString(), "error");
    EXPECT_EQ(frame.at("code").asString(), "overloaded");
    EXPECT_FALSE(second.recv(frame)); // closed after the flush

    // The admitted connection keeps serving.
    ASSERT_TRUE(first.send(ping));
    ASSERT_TRUE(first.recv(frame));
    EXPECT_EQ(frame.at("type").asString(), "pong");
    server.stop();
}

TEST(ServeIntegration, Barrage200RequestsBoundedQueueCleanDrain)
{
    constexpr unsigned kClients = 8;
    constexpr unsigned kPerClient = 25;
    constexpr std::size_t kMaxQueue = 8;

    ServerOptions so;
    so.port = 0;
    so.threads = 2;
    so.maxQueue = kMaxQueue;
    Server server(so);
    std::string err;
    ASSERT_TRUE(server.start(&err)) << err;
    ScopedLogCapture quiet;

    // Every request is the same tiny point, pipelined without
    // waiting: the daemon must bound its queue (rejecting the
    // overflow) and answer everything else, increasingly from the
    // cache once the first computation lands.
    Json req = Json::object();
    req.set("type", Json::string("submit"));
    Json options = Json::object();
    options.set("scale", Json::number(0.002));
    options.set("warmup", Json::number(std::uint64_t{0}));
    options.set("seed", Json::number(std::uint64_t{42}));
    options.set("workloads", Json::string("spmv"));
    options.set("schemes", Json::string("DECTED"));
    req.set("options", std::move(options));
    req.set("stream", Json::boolean(false));

    std::atomic<unsigned> done{0}, rejected{0}, other{0};
    std::vector<std::thread> threads;
    for (unsigned c = 0; c < kClients; ++c) {
        threads.emplace_back([&] {
            Client client;
            std::string cerr;
            ASSERT_TRUE(client.connectTcp(server.boundPort(), &cerr))
                << cerr;
            for (unsigned i = 0; i < kPerClient; ++i)
                ASSERT_TRUE(client.send(req, &cerr)) << cerr;
            // Bounded drain: every pipelined submit owes exactly one
            // terminal frame; a daemon that drops one turns into a
            // diagnosed timeout here, not a hung client thread that
            // the harness eventually kills with no context.
            unsigned terminals = 0;
            while (terminals < kPerClient) {
                Json frame;
                ASSERT_TRUE(client.recvWithin(frame, 60000, &cerr))
                    << "after " << terminals << "/" << kPerClient
                    << " terminals: " << cerr;
                if (frame.at("type").asString() != "result")
                    continue;
                ++terminals;
                const std::string &outcome =
                    frame.at("outcome").asString();
                if (outcome == "done")
                    ++done;
                else if (outcome == "rejected")
                    ++rejected;
                else
                    ++other;
            }
        });
    }
    for (std::thread &t : threads)
        t.join();

    EXPECT_EQ(done + rejected + other, kClients * kPerClient);
    EXPECT_EQ(other.load(), 0u);
    EXPECT_GE(done.load(), 1u);

    // The queue stayed bounded throughout.
    Client statsClient;
    ASSERT_TRUE(statsClient.connectTcp(server.boundPort(), &err))
        << err;
    Json statsReq = Json::object();
    statsReq.set("type", Json::string("stats"));
    ASSERT_TRUE(statsClient.send(statsReq));
    Json reply;
    ASSERT_TRUE(statsClient.recv(reply));
    const Json &stats = reply.at("stats");
    EXPECT_LE(stats.at("scheduler").at("peak_queued").asInt(),
              std::int64_t(kMaxQueue));
    const Json &outcomes = stats.at("outcomes");
    EXPECT_EQ(std::uint64_t(outcomes.at("done").asDouble()) +
                  std::uint64_t(
                      outcomes.at("cache_hits").asDouble()),
              std::uint64_t(done.load()));
    EXPECT_EQ(std::uint64_t(outcomes.at("rejected").asDouble()),
              std::uint64_t(rejected.load()));
    // Every submit consulted the cache (hits depend on timing: a
    // pipelined submit only hits once the first computation lands).
    EXPECT_GE(stats.at("cache").at("misses").asInt(), 1);

    server.stop(); // clean drain with clients gone
}

TEST(ServeIntegration, StatsExposeLatencyQuantiles)
{
    Loopback lo;
    ScopedLogCapture quiet;
    Json terminal;
    std::string err;
    ASSERT_TRUE(
        lo.client.submit(smokeSubmit(false), terminal, {}, &err))
        << err;
    Json statsReq = Json::object();
    statsReq.set("type", Json::string("stats"));
    ASSERT_TRUE(lo.client.send(statsReq));
    Json reply;
    ASSERT_TRUE(lo.client.recv(reply));
    const Json &lat = reply.at("stats").at("latency");
    EXPECT_EQ(lat.at("count").asInt(), 1);
    EXPECT_GE(lat.at("p99_s").asDouble(), lat.at("p50_s").asDouble());
    lo.server.stop();
}

// ---------------------------------------------------------------
// Metrics plane
// ---------------------------------------------------------------

namespace
{

/** Blocking GET http://127.0.0.1:port/path; returns the body. */
std::string
httpGet(std::uint16_t port, const std::string &path,
        std::string *statusLine = nullptr)
{
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0)
        return "";
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                  sizeof(addr)) != 0) {
        ::close(fd);
        return "";
    }
    const std::string req =
        "GET " + path + " HTTP/1.0\r\n\r\n";
    (void)!::write(fd, req.data(), req.size());
    std::string response;
    char buf[4096];
    ssize_t n;
    while ((n = ::read(fd, buf, sizeof(buf))) > 0)
        response.append(buf, std::size_t(n));
    ::close(fd);
    const auto headerEnd = response.find("\r\n\r\n");
    if (headerEnd == std::string::npos)
        return "";
    if (statusLine)
        *statusLine = response.substr(0, response.find("\r\n"));
    return response.substr(headerEnd + 4);
}

/** Fetch the daemon's `metrics` frame reply. */
Json
metricsFrame(Client &client)
{
    Json req = Json::object();
    req.set("type", Json::string("metrics"));
    EXPECT_TRUE(client.send(req));
    Json reply;
    EXPECT_TRUE(client.recvWithin(reply, 10000));
    EXPECT_EQ(reply.at("type").asString(), "metrics_reply");
    return reply;
}

/**
 * Drop exposition lines the act of scraping itself perturbs —
 * wall-clock uptime, and the wire counters the `metrics` frame and
 * the HTTP request bump (frames, outbox bytes, http requests) — so
 * two scrapes of an otherwise quiescent daemon compare
 * byte-identically on everything that matters.
 */
std::string
stripScrapePerturbed(const std::string &text)
{
    static const char *kVolatile[] = {
        "kserved_uptime_seconds",      "kserved_frames_received_total",
        "kserved_frames_sent_total",   "kserved_outbox_bytes_total",
        "kserved_http_requests_total", "kserved_reactor_wakeups_total",
    };
    std::string out;
    std::istringstream in(text);
    std::string line;
    while (std::getline(in, line)) {
        bool skip = false;
        for (const char *name : kVolatile)
            skip = skip || line.find(name) != std::string::npos;
        if (skip)
            continue;
        out += line;
        out += '\n';
    }
    return out;
}

} // namespace

TEST(ServeMetrics, FrameAndHttpScrapeExposeIdenticalFamilies)
{
    ServerOptions so;
    so.port = 0;
    so.threads = 1;
    so.metricsHttp = true;
    so.metricsPort = 0;
    Server server(so);
    std::string err;
    ASSERT_TRUE(server.start(&err)) << err;
    ASSERT_NE(server.metricsBoundPort(), 0);
    Client client;
    ASSERT_TRUE(client.connectTcp(server.boundPort(), &err)) << err;
    ScopedLogCapture quiet;

    Json terminal;
    ASSERT_TRUE(client.submit(smokeSubmit(false), terminal, {}, &err))
        << err;
    ASSERT_EQ(terminal.at("outcome").asString(), "done");

    // The terminal frame can reach us a hair before the worker
    // finishes its scheduler bookkeeping; wait for true quiescence
    // so the two scrapes see identical gauge values.
    ASSERT_TRUE(waitUntil(
        [&] {
            Json req = Json::object();
            req.set("type", Json::string("stats"));
            Json reply;
            return client.send(req) &&
                   client.recvWithin(reply, 10000) &&
                   reply.at("stats")
                           .at("scheduler")
                           .at("running")
                           .asInt() == 0;
        },
        "scheduler to go idle"));

    const Json reply = metricsFrame(client);
    const std::string fromFrame = reply.at("text").asString();
    std::string status;
    const std::string fromHttp =
        httpGet(server.metricsBoundPort(), "/metrics", &status);
    EXPECT_NE(status.find("200"), std::string::npos) << status;

    // The daemon is quiescent between the two scrapes: modulo the
    // wall-clock uptime gauge and the wire counters the scrapes
    // themselves bump, the expositions are byte-identical.
    EXPECT_EQ(stripScrapePerturbed(fromFrame),
              stripScrapePerturbed(fromHttp));

    // The structured JSON covers the same families as the text.
    const Json &families = reply.at("metrics").at("families");
    ASSERT_GT(families.size(), 0u);
    for (std::size_t i = 0; i < families.size(); ++i) {
        const std::string &name =
            families.at(i).at("name").asString();
        EXPECT_NE(fromFrame.find("# TYPE " + name + " "),
                  std::string::npos)
            << name;
    }

    // Unknown paths 404, non-GET 405.
    httpGet(server.metricsBoundPort(), "/nope", &status);
    EXPECT_NE(status.find("404"), std::string::npos) << status;

    server.stop();
}

TEST(ServeMetrics, SpanStagesSumToEndToEndLatency)
{
    Loopback lo;
    ScopedLogCapture quiet;
    Json terminal;
    std::string err;
    ASSERT_TRUE(
        lo.client.submit(smokeSubmit(false), terminal, {}, &err))
        << err;
    ASSERT_EQ(terminal.at("outcome").asString(), "done");
    ASSERT_TRUE(terminal.contains("spans"));
    const Json &spans = terminal.at("spans");
    const double total = spans.at("total_s").asDouble();
    ASSERT_GT(total, 0.0);
    double sum = 0.0;
    for (const char *stage : {"decode_s", "queue_s", "setup_s",
                              "run_s", "serialize_s", "reply_s"})
        sum += spans.at(stage).asDouble();
    // Acceptance criterion: the six stages tile the end-to-end
    // latency (within 5%; by construction it is exact modulo fp).
    EXPECT_NEAR(sum, total, 0.05 * total);
    // The run stage dominates a cold sweep.
    EXPECT_GT(spans.at("run_s").asDouble(), 0.5 * total);
    lo.server.stop();
}

TEST(ServeMetrics, CacheHitCountsHitAndSkipsRunStage)
{
    Loopback lo;
    ScopedLogCapture quiet;
    Json cold, hit;
    std::string err;
    ASSERT_TRUE(lo.client.submit(smokeSubmit(false), cold, {}, &err))
        << err;
    ASSERT_TRUE(lo.client.submit(smokeSubmit(false), hit, {}, &err))
        << err;
    ASSERT_TRUE(hit.at("cached").asBool());

    // The cached reply still carries spans (decode + reply only; no
    // run stage ever happened).
    ASSERT_TRUE(hit.contains("spans"));
    EXPECT_EQ(hit.at("spans").at("run_s").asDouble(), 0.0);
    EXPECT_GT(hit.at("spans").at("total_s").asDouble(), 0.0);

    const Json metricsDoc =
        metricsFrame(lo.client).at("metrics");
    const Json snap = metrics::ktopSnapshot(metricsDoc);
    EXPECT_EQ(snap.at("cache").at("hits").asInt(), 1);
    EXPECT_EQ(snap.at("cache").at("misses").asInt(), 1);
    // Only the cold submit was admitted and ran.
    EXPECT_EQ(snap.at("scheduler").at("submitted").asInt(), 1);
    EXPECT_EQ(snap.at("jobs").at("done").asInt(), 1);
    EXPECT_EQ(snap.at("stages").at("run").at("count").asInt(), 1);
    // Both submits observed decode; the hit observed 0 s end-to-end
    // (the historical convention), so latency count is 2.
    EXPECT_EQ(snap.at("stages").at("decode").at("count").asInt(), 2);
    EXPECT_EQ(snap.at("latency").at("count").asInt(), 2);
    lo.server.stop();
}

TEST(ServeMetrics, StatsReplyKeepsBackwardCompatibleMembers)
{
    Loopback lo;
    ScopedLogCapture quiet;
    Json terminal;
    std::string err;
    ASSERT_TRUE(
        lo.client.submit(smokeSubmit(false), terminal, {}, &err))
        << err;
    Json req = Json::object();
    req.set("type", Json::string("stats"));
    ASSERT_TRUE(lo.client.send(req));
    Json reply;
    ASSERT_TRUE(lo.client.recvWithin(reply, 10000));
    const Json &stats = reply.at("stats");
    // The pre-kmetrics member surface, now sourced from the
    // registry: scripts depending on these keys keep working
    // (warm_store is the one additive member).
    for (const char *key :
         {"build", "draining", "scheduler", "cache", "warm_store",
          "latency", "outcomes"})
        EXPECT_TRUE(stats.contains(key)) << key;
    const Json &lat = stats.at("latency");
    for (const char *key : {"count", "mean_s", "p50_s", "p99_s"})
        EXPECT_TRUE(lat.contains(key)) << key;
    const Json &out = stats.at("outcomes");
    for (const char *key :
         {"cache_hits", "done", "failed", "cancelled", "rejected",
          "protocol_errors", "connections"})
        EXPECT_TRUE(out.contains(key)) << key;
    EXPECT_EQ(out.at("done").asInt(), 1);
    lo.server.stop();
}

TEST(ServeMetrics, StatsLatencyQuantilesNullBeforeFirstJob)
{
    // Regression: a fresh daemon has an empty latency histogram;
    // its quantiles used to leak NaN into the stats_reply. The keys
    // must stay present (clients key on them) but carry an explicit
    // null until the first job finishes.
    Loopback lo;
    ScopedLogCapture quiet;
    Json req = Json::object();
    req.set("type", Json::string("stats"));
    ASSERT_TRUE(lo.client.send(req));
    Json reply;
    ASSERT_TRUE(lo.client.recvWithin(reply, 10000));
    const Json &lat = reply.at("stats").at("latency");
    EXPECT_EQ(lat.at("count").asInt(), 0);
    for (const char *key : {"mean_s", "p50_s", "p99_s"}) {
        ASSERT_TRUE(lat.contains(key)) << key;
        EXPECT_TRUE(lat.at(key).isNull()) << key;
    }
    lo.server.stop();
}

// ---------------------------------------------------------------
// Warm-state store
// ---------------------------------------------------------------

namespace
{

/** A smoke submit with an overridable workload subset and seed, so
 *  tests can force distinct result-cache keys that still share (or
 *  not) a die. */
Json
warmSubmit(const std::string &workloads, std::uint64_t seed)
{
    Json options = Json::object();
    options.set("scale", Json::number(0.02));
    options.set("warmup", Json::number(std::uint64_t{0}));
    options.set("seed", Json::number(seed));
    options.set("workloads", Json::string(workloads));
    options.set("schemes", Json::string("DECTED"));
    Json req = Json::object();
    req.set("type", Json::string("submit"));
    req.set("options", std::move(options));
    req.set("stream", Json::boolean(false));
    return req;
}

} // namespace

TEST(WarmStore, FaultMapKeySeparatesScenarioGeometryAndSeed)
{
    ScenarioSpec spec;
    const std::string base = faultMapKey(spec, 1024, 720);
    EXPECT_EQ(base, faultMapKey(spec, 1024, 720));
    EXPECT_NE(base, faultMapKey(spec, 2048, 720));
    EXPECT_NE(base, faultMapKey(spec, 1024, 523));
    ScenarioSpec reseeded = spec;
    reseeded.seed = 43;
    EXPECT_NE(base, faultMapKey(reseeded, 1024, 720));
    ScenarioSpec clustered = spec;
    clustered.model = "clustered";
    EXPECT_NE(base, faultMapKey(clustered, 1024, 720));
}

TEST(ServeIntegration, WarmStoreSharesOneDieAcrossDistinctJobs)
{
    // Two jobs that differ only in their workload subset miss the
    // result cache (different canonical keys) but describe the same
    // die — the population must be synthesized exactly once and
    // adopted by the other job.
    Loopback lo;
    ScopedLogCapture quiet;
    Json first, second;
    std::string err;
    ASSERT_TRUE(
        lo.client.submit(warmSubmit("xsbench", 42), first, {}, &err))
        << err;
    ASSERT_EQ(first.at("outcome").asString(), "done");
    EXPECT_FALSE(first.at("cached").asBool());
    ASSERT_TRUE(
        lo.client.submit(warmSubmit("spmv", 42), second, {}, &err))
        << err;
    ASSERT_EQ(second.at("outcome").asString(), "done");
    EXPECT_FALSE(second.at("cached").asBool());

    Json req = Json::object();
    req.set("type", Json::string("stats"));
    ASSERT_TRUE(lo.client.send(req));
    Json reply;
    ASSERT_TRUE(lo.client.recvWithin(reply, 10000));
    const Json &warm = reply.at("stats").at("warm_store");
    // Each campaign asks the store once, not once per point: the
    // first job's request synthesizes, the second job's hits.
    EXPECT_EQ(warm.at("misses").asInt(), 1);
    EXPECT_EQ(warm.at("hits").asInt(), 1);
    EXPECT_EQ(warm.at("insertions").asInt(), 1);
    EXPECT_EQ(warm.at("entries").asInt(), 1);
    EXPECT_GT(warm.at("bytes").asInt(), 0);
    lo.server.stop();
}

TEST(ServeIntegration, WarmBackedSweepMatchesColdRecordingAndReplays)
{
    // The bit-identity contract, end to end through krr: a cold
    // recorded run, a warm-store-backed run of the same options, and
    // a replay of the recording must all agree bit-for-bit.
    ScopedLogCapture quiet;
    SweepOptions opt;
    opt.scale = 0.02;
    opt.warmupPasses = 0;
    opt.workloads = {"xsbench"};
    opt.schemes = {"DECTED"};
    opt.jobs = 1;

    const replay::SweepSession cold = replay::recordSweep(opt);
    const std::string coldWorkloads =
        sweepToJson(opt, cold.result).at("workloads").toString(0);

    DieStore store({.maxBytes = 64 << 20});
    SweepOptions wopt = opt;
    wopt.warmFaultSource = warmFaultSource(store, wopt.scenario);
    const SweepResult warmRes = runEvaluationSweep(wopt);
    EXPECT_EQ(
        sweepToJson(opt, warmRes).at("workloads").toString(0),
        coldWorkloads);
    // The campaign consulted the store once, for both points
    // (baseline + DECTED): one synthesis, no hit.
    EXPECT_EQ(store.stats().misses, 1u);
    EXPECT_EQ(store.stats().hits, 0u);

    // The cold recording replays bit-identically — and the replay
    // path samples cold by construction (replaySweep never merges a
    // warm source), so the recording's RNG draws all verify.
    const replay::SweepSession rep = replay::replaySweep(cold.recording);
    EXPECT_TRUE(rep.verified)
        << rep.divergence.toJson().toString(2);
    EXPECT_EQ(sweepToJson(rep.opt, rep.result)
                  .at("workloads")
                  .toString(0),
              coldWorkloads);
}

TEST(ServeIntegration, WarmHitOnCoveredDieMatchesDirectSweep)
{
    // The warm store samples a die only down to the voltages its
    // campaign activates. A hit on that die must answer exactly like
    // a direct run, and one default die must stay small: its 7K
    // active cells, not the 2.7M that could fail at 0.45 V.
    ScopedLogCapture quiet;
    SweepOptions opt;
    opt.scale = 0.02;
    opt.warmupPasses = 0;
    opt.workloads = {"xsbench"};
    opt.schemes = {"Killi 1:256"};
    opt.jobs = 1;
    const Json direct = sweepToJson(opt, runEvaluationSweep(opt));

    DieStore store({.maxBytes = 64 << 20});
    SweepOptions wopt = opt;
    wopt.warmFaultSource = warmFaultSource(store, wopt.scenario);
    runEvaluationSweep(wopt);
    const Json hit = sweepToJson(opt, runEvaluationSweep(wopt));
    EXPECT_EQ(store.stats().misses, 1u);
    EXPECT_EQ(store.stats().hits, 1u);
    for (const char *member : {"sweep", "workloads"}) {
        EXPECT_EQ(hit.at(member).toString(0),
                  direct.at(member).toString(0))
            << member;
    }
    EXPECT_EQ(store.stats().entries, 1u);
    EXPECT_LT(store.stats().bytes, std::uint64_t{2} << 20);
}

TEST(ServeIntegration, DrainClearsCacheAndWarmStateBytes)
{
    // Regression: drain-time teardown racing LRU eviction used to
    // leave the kserved_cache_bytes gauge non-zero. Force eviction
    // pressure (capacity 1) and assert both stores' gauges read 0
    // after a full drain.
    ServerOptions so;
    so.port = 0;
    so.threads = 1;
    so.cacheEntries = 1;
    Server server(so);
    std::string err;
    ASSERT_TRUE(server.start(&err)) << err;
    Client client;
    ASSERT_TRUE(client.connectTcp(server.boundPort(), &err)) << err;
    ScopedLogCapture quiet;

    Json first, second;
    ASSERT_TRUE(
        client.submit(warmSubmit("xsbench", 42), first, {}, &err))
        << err;
    ASSERT_EQ(first.at("outcome").asString(), "done");
    // A different seed: a different cache key AND a different die,
    // so both stores hold real state and the cache must evict.
    ASSERT_TRUE(
        client.submit(warmSubmit("xsbench", 7), second, {}, &err))
        << err;
    ASSERT_EQ(second.at("outcome").asString(), "done");

    Json before = server.statsJson();
    EXPECT_EQ(before.at("cache").at("insertions").asInt(), 2);
    EXPECT_EQ(before.at("cache").at("evictions").asInt(), 1);
    EXPECT_EQ(before.at("cache").at("entries").asInt(), 1);
    EXPECT_GT(before.at("cache").at("bytes").asInt(), 0);
    EXPECT_EQ(before.at("warm_store").at("entries").asInt(), 2);
    EXPECT_GT(before.at("warm_store").at("bytes").asInt(), 0);

    server.stop();

    Json after = server.statsJson();
    EXPECT_EQ(after.at("cache").at("entries").asInt(), 0);
    EXPECT_EQ(after.at("cache").at("bytes").asInt(), 0);
    // The cleared entry counts as an eviction: 1 by capacity + 1 by
    // the drain-time clear.
    EXPECT_EQ(after.at("cache").at("evictions").asInt(), 2);
    EXPECT_EQ(after.at("warm_store").at("entries").asInt(), 0);
    EXPECT_EQ(after.at("warm_store").at("bytes").asInt(), 0);
}

// ---------------------------------------------------------------
// One sweep-options codec: every request producer round-trips
// ---------------------------------------------------------------

namespace
{

/** Parse @p args (key=value tokens) into @p opts. */
void
parseTokens(Options &opts, std::vector<std::string> args)
{
    std::vector<char *> argv;
    static char name[] = "serve_test";
    argv.push_back(name);
    for (std::string &arg : args)
        argv.push_back(arg.data());
    opts.parse(static_cast<int>(argv.size()), argv.data());
}

/** The canonical key parseSubmit() resolves @p frame to. */
std::string
keyOfFrame(const Json &frame)
{
    SubmitRequest req;
    std::string err;
    if (!parseSubmit(frame, req, err)) {
        ADD_FAILURE() << "parseSubmit: " << err << " in "
                      << frame.toString(0);
        return "";
    }
    return canonicalKeyFor(req.sopt);
}

std::string
joinNames(const std::vector<std::string> &names)
{
    std::string out;
    for (const std::string &name : names)
        out += (out.empty() ? "" : ",") + name;
    return out;
}

struct CodecRow
{
    const char *name;
    std::vector<std::string> args;
    /** The row varies the die only through seed=, so a SweepOptions
     *  that sets just scenario.seed must canonicalize like it. */
    bool seedOnlyScenario;
};

} // namespace

TEST(SweepCodec, EveryProducerRoundTripsToTheSourceCanonicalKey)
{
    const std::string clustered =
        "scenario={\"format\":\"killi-scenario-v1\","
        "\"model\":\"clustered\",\"seed\":\"9\","
        "\"params\":{\"row_frac\":0.02,\"cluster_rate\":0.002}}";
    const std::string droop =
        "scenario={\"format\":\"killi-scenario-v1\","
        "\"model\":\"droop\",\"seed\":\"7\",\"params\":{"
        "\"base\":\"clustered\",\"schedule\":[0.6,0.575,0.625]}}";
    const std::vector<CodecRow> rows = {
        {"default iid", {}, true},
        {"clustered", {"scale=0.5", "warmup=1", clustered,
                       "workloads=spmv,xsbench", "schemes=FLAIR"},
         false},
        {"droop", {droop, "stats-interval=5000"}, false},
        {"seed override", {"seed=7", "scale=0.02", "warmup=0",
                           "workloads=xsbench", "schemes=DECTED"},
         true},
        {"all by name",
         {"workloads=" + joinNames(workloadNames()),
          "schemes=" + joinNames(sweepSchemeNames())},
         true},
    };
    std::string defaultKey;
    for (const CodecRow &row : rows) {
        SCOPED_TRACE(row.name);
        // CLI sweepOptions(): the source every producer must match.
        Options cli("fig4_performance", "test");
        declareSweepOptions(cli, "t");
        parseTokens(cli, row.args);
        const SweepOptions src = sweepOptions(cli);
        const std::string key = canonicalKeyFor(src);

        // fig4_performance server= sends the CLI options as is.
        EXPECT_EQ(keyOfFrame(serve::submitFrame(encodeSweepOptions(src))),
                  key);

        // kcli submit: the request half of the same knobs.
        Options kcli("kcli submit", "test");
        declareSweepRequestOptions(kcli);
        parseTokens(kcli, row.args);
        EXPECT_EQ(keyOfFrame(serve::submitFrame(
                      encodeSweepOptions(sweepRequestOptions(kcli)), 5,
                      false)),
                  key);

        // kfleetd: the front end parses the campaign, then each
        // shard frame must decode to the shard's own key.
        SubmitRequest campaign;
        std::string err;
        ASSERT_TRUE(parseSubmit(serve::submitFrame(encodeSweepOptions(src)),
                                campaign, err))
            << err;
        SweepOptions shard = campaign.sopt;
        shard.workloads = {campaign.sopt.workloads.back()};
        SweepOptions srcShard = src;
        srcShard.workloads = shard.workloads;
        EXPECT_EQ(keyOfFrame(serve::submitFrame(encodeSweepOptions(shard),
                                                0, false)),
                  canonicalKeyFor(srcShard));

        // A seed-only SweepOptions: scenario.seed alone, in an
        // otherwise default scenario, keys like the CLI's seed=.
        if (row.seedOnlyScenario) {
            SweepOptions job;
            job.scale = src.scale;
            job.warmupPasses = src.warmupPasses;
            job.workloads = src.workloads;
            job.schemes = src.schemes;
            job.scenario.seed = src.scenario.seed;
            EXPECT_EQ(keyOfFrame(serve::submitFrame(
                          encodeSweepOptions(job), 0, false)),
                      key);
        }

        // A sweep recording's meta, shipped as a replay job.
        SweepOptions recorded = src;
        recorded.trace = "all";
        replay::Recorder recorder("sweep");
        Json meta = Json::object();
        meta.set("options",
                 encodeSweepOptions(recorded, SweepWire::Recording));
        recorder.recording().meta = std::move(meta);
        recorder.finish("");
        Json replayReq = Json::object();
        replayReq.set("type", Json::string("submit"));
        replayReq.set("replay", recorder.recording().toJson());
        EXPECT_EQ(keyOfFrame(replayReq), key);

        if (defaultKey.empty())
            defaultKey = key;
        if (std::string(row.name) == "all by name") {
            EXPECT_EQ(key, defaultKey)
                << "all by default and all by name must share a key";
        }
        if (std::string(row.name) == "droop") {
            EXPECT_DOUBLE_EQ(src.voltage, 0.6)
                << "the voltage mirror is the schedule's first point";
        }
    }
}

TEST(SweepCodec, CanonicalKeyAndOptionsEchoBytesArePinned)
{
    // The serve-smoke CI sweep. These bytes address every cached
    // result; a change here invalidates caches and the golden keys.
    Json frame = Json::object();
    frame.set("type", Json::string("submit"));
    Json options = Json::object();
    options.set("scale", Json::number(0.02));
    options.set("warmup", Json::number(std::uint64_t{0}));
    options.set("seed", Json::number(std::uint64_t{42}));
    options.set("workloads", Json::string("xsbench,spmv"));
    options.set("schemes", Json::string("DECTED,Killi 1:256"));
    frame.set("options", std::move(options));
    SubmitRequest req;
    std::string err;
    ASSERT_TRUE(parseSubmit(frame, req, err)) << err;

    const std::string members =
        "\"scale\":0.02,\"warmup\":0,\"voltage\":0.625,\"seed\":42,"
        "\"stats_interval\":0,\"scenario\":{\"format\":"
        "\"killi-scenario-v1\",\"model\":\"iid\",\"seed\":\"42\","
        "\"voltage\":0.625,\"freq_ghz\":1.0},\"workloads\":["
        "\"xsbench\",\"spmv\"],\"schemes\":[\"DECTED\","
        "\"Killi 1:256\"],\"build\":\"" +
        std::string(buildId()) + "\"";
    EXPECT_EQ(canonicalKeyFor(req.sopt),
              "{\"experiment\":\"sweep\"," + members + "}");
    EXPECT_EQ(resolvedOptionsJson(req.sopt).toString(0),
              "{" + members + "}");

    // The wire form the shard and server= producers send.
    EXPECT_EQ(encodeSweepOptions(req.sopt).toString(0),
              "{\"scale\":0.02,\"warmup\":0,\"stats_interval\":0,"
              "\"scenario\":{\"format\":\"killi-scenario-v1\","
              "\"model\":\"iid\",\"seed\":\"42\",\"voltage\":0.625,"
              "\"freq_ghz\":1.0},\"workloads\":[\"xsbench\",\"spmv\"],"
              "\"schemes\":[\"DECTED\",\"Killi 1:256\"],\"retries\":1}");
}
