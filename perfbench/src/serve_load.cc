/**
 * @file
 * serve-mix and fleet-campaign: closed-loop clients against a daemon
 * the benchmark starts (kserved, or kfleetd with two spawned
 * single-thread kserved workers), over the kserveclient frame
 * protocol. Each client holds one connection and sends its next
 * submit only after the previous result frame arrived, as kcli does.
 *
 * Output checks: every job ends "done" with the expected cache
 * outcome; a cache hit is byte-identical to the reply that filled the
 * cache; sampled results are byte-identical (bench, options, sweep,
 * workloads) to an in-process run of the same submit frame through
 * parseSubmit + runEvaluationSweep, i.e. to what one kserved computes.
 */

#include <atomic>
#include <functional>
#include <mutex>
#include <thread>

#include "bench/sweep.hh"
#include "common/rng.hh"
#include "daemon.hh"
#include "serve/submit.hh"
#include "stamp.hh"
#include "workloads.hh"

using killi::Json;
using killi::serve::Client;

namespace perfbench
{

namespace
{

/** One submit in a load plan. */
struct JobPlan
{
    std::uint64_t seed = 0;
    bool cached = false;
};

/** The sweep every job of a workload runs, varying only the seed. */
struct SweepShape
{
    double scale = 0.02;
    unsigned warmup = 0;
    std::vector<std::string> workloads;
    std::vector<std::string> schemes;
};

Json
stringArray(const std::vector<std::string> &names)
{
    Json arr = Json::array();
    for (const std::string &n : names)
        arr.push(Json::string(n));
    return arr;
}

Json
submitFrame(const SweepShape &shape, std::uint64_t seed)
{
    Json options = Json::object();
    options.set("scale", Json::number(shape.scale));
    options.set("warmup", Json::number(std::uint64_t(shape.warmup)));
    options.set("seed", Json::number(seed));
    options.set("workloads", stringArray(shape.workloads));
    options.set("schemes", stringArray(shape.schemes));
    Json req = Json::object();
    req.set("type", Json::string("submit"));
    req.set("options", std::move(options));
    req.set("stream", Json::boolean(false));
    return req;
}

/** One completed (or failed) submit. */
struct JobRecord
{
    JobPlan plan;
    bool ok = false;
    std::string error;
    double clientMs = 0;
    /** The terminal frame (result), when one arrived. */
    Json frame;
};

/** Submit @p req on @p client and wait for its terminal frame. */
JobRecord
runJob(Client &client, const JobPlan &plan, const Json &req)
{
    JobRecord rec;
    rec.plan = plan;
    std::string err;
    const Clock::time_point t0 = Clock::now();
    const bool sent = client.submit(req, rec.frame, {}, &err);
    rec.clientMs = secondsSince(t0) * 1e3;
    if (!sent)
        rec.error = "transport: " + err;
    else if (rec.frame.at("type").asString() != "result")
        rec.error = "terminal frame " + rec.frame.toString(0);
    else if (rec.frame.at("outcome").asString() != "done")
        rec.error = "outcome " + rec.frame.at("outcome").asString();
    else if (rec.frame.at("cached").asBool() != plan.cached)
        rec.error = std::string("expected a cache ") +
                    (plan.cached ? "hit" : "miss") + " for seed " +
                    std::to_string(plan.seed);
    rec.ok = rec.error.empty();
    return rec;
}

struct LoadResult
{
    std::vector<JobRecord> jobs;
    double wallS = 0;
};

/**
 * Closed loop: @p clients connections, each submitting plan(i) for the
 * next global index i until @p seconds have passed and at least
 * @p minJobs jobs were sent (so the p50s the workload reports have
 * their 20 samples even on a slow host).
 */
LoadResult
closedLoop(const Daemon &daemon, unsigned clients, double seconds,
           std::uint64_t minJobs,
           const std::function<JobPlan(std::uint64_t)> &plan,
           const SweepShape &shape)
{
    LoadResult out;
    std::mutex mtx;
    std::atomic<std::uint64_t> next{0};
    const Clock::time_point t0 = Clock::now();
    Clock::time_point lastDone = t0;
    std::vector<std::thread> pool;
    for (unsigned c = 0; c < clients; ++c) {
        pool.emplace_back([&] {
            Client client;
            std::string err;
            if (!daemon.connect(client, &err)) {
                std::lock_guard<std::mutex> lock(mtx);
                JobRecord rec;
                rec.error = "connect: " + err;
                out.jobs.push_back(std::move(rec));
                return;
            }
            while (true) {
                const std::uint64_t i = next.fetch_add(1);
                if (i >= minJobs && secondsSince(t0) >= seconds)
                    return;
                const JobPlan p = plan(i);
                JobRecord rec =
                    runJob(client, p, submitFrame(shape, p.seed));
                std::lock_guard<std::mutex> lock(mtx);
                lastDone = std::max(lastDone, Clock::now());
                out.jobs.push_back(std::move(rec));
                if (!out.jobs.back().ok && out.jobs.back().frame.isNull())
                    return; // the connection is gone
            }
        });
    }
    for (std::thread &t : pool)
        t.join();
    out.wallS = std::chrono::duration<double>(lastDone - t0).count();
    return out;
}

/** A one-frame request/reply exchange ("stats", "metrics"). */
Json
query(const Daemon &daemon, const std::string &type)
{
    Client client;
    Json req = Json::object();
    req.set("type", Json::string(type));
    Json reply;
    std::string err;
    if (!daemon.connect(client, &err) || !client.send(req, &err) ||
        !client.recvWithin(reply, 10000, &err))
        return Json::null();
    return reply;
}

/** The metrics_reply family @p name; null when absent. */
const Json *
family(const Json &metricsReply, const std::string &name)
{
    if (metricsReply.isNull())
        return nullptr;
    const Json &fams = metricsReply.at("metrics").at("families");
    for (std::size_t i = 0; i < fams.size(); ++i) {
        if (fams.at(i).at("name").asString() == name)
            return &fams.at(i);
    }
    return nullptr;
}

/** Sum of a counter/gauge family's instrument values (0 if absent). */
double
familyValue(const Json &metricsReply, const std::string &name)
{
    const Json *f = family(metricsReply, name);
    double sum = 0;
    if (f) {
        const Json &ms = f->at("metrics");
        for (std::size_t i = 0; i < ms.size(); ++i)
            sum += ms.at(i).at("value").asDouble();
    }
    return sum;
}

/**
 * Compare @p served (a result document) with an in-process run of
 * the same submit frame. @p threads only speeds the direct run up:
 * results do not depend on it, and the echoed options keep the
 * request's jobs=1.
 */
bool
matchesDirectRun(const Json &req, const Json &served, unsigned threads,
                 std::string &why)
{
    killi::serve::SubmitRequest sr;
    if (!killi::serve::parseSubmit(req, sr, why))
        return false;
    killi::SweepOptions run = sr.sopt;
    run.jobs = threads;
    const Json body =
        killi::sweepToJson(sr.sopt, killi::runEvaluationSweep(run));
    Json direct = Json::object();
    direct.set("bench", Json::string("kserved"));
    direct.set("options", killi::serve::resolvedOptionsJson(sr.sopt));
    direct.set("sweep", body.at("sweep"));
    direct.set("workloads", body.at("workloads"));
    for (const char *key : {"bench", "options", "sweep", "workloads"}) {
        if (!served.contains(key) ||
            served.at(key).toString(0) != direct.at(key).toString(0)) {
            why = std::string("'") + key + "' differs from the direct run";
            return false;
        }
    }
    return true;
}

/** Span members of a result frame, in pipeline order. */
const char *const kSpans[] = {"decode", "queue", "setup",
                              "run", "serialize", "reply"};

/** First seed of a job family, distinct per benchmark seed and purpose. */
std::uint64_t
seedBase(std::uint64_t seed, std::uint64_t purpose)
{
    return ((seed % 100000) * 16 + purpose) * 1000000 + 1;
}

void
accountJobs(const LoadResult &load, WorkloadResult &out)
{
    for (const JobRecord &rec : load.jobs) {
        ++out.ops;
        if (!rec.ok)
            out.fail(rec.error);
    }
}

/** Latency samples of the successful jobs with cached == @p cached. */
std::vector<double>
latencies(const LoadResult &load, bool cached)
{
    std::vector<double> ms;
    for (const JobRecord &rec : load.jobs) {
        if (rec.ok && rec.plan.cached == cached)
            ms.push_back(rec.clientMs);
    }
    return ms;
}

std::size_t
okJobs(const LoadResult &load)
{
    std::size_t n = 0;
    for (const JobRecord &rec : load.jobs)
        n += rec.ok;
    return n;
}

/** Sampled direct-run comparisons: @p count jobs picked by @p rng
 *  among those matching @p cached. */
void
checkAgainstDirect(const LoadResult &load, const SweepShape &shape,
                   bool cached, std::size_t count, killi::Rng &rng,
                   unsigned threads, WorkloadResult &out)
{
    std::vector<const JobRecord *> pool;
    for (const JobRecord &rec : load.jobs) {
        if (rec.ok && rec.plan.cached == cached)
            pool.push_back(&rec);
    }
    for (std::size_t k = 0; k < count && !pool.empty(); ++k) {
        const JobRecord &rec = *pool[rng.next64() % pool.size()];
        ++out.ops;
        std::string why;
        if (!matchesDirectRun(submitFrame(shape, rec.plan.seed),
                              rec.frame.at("result"), threads, why))
            out.fail("seed " + std::to_string(rec.plan.seed) + ": " +
                     why);
    }
}

/**
 * The serve.* span metrics of @p load. Cache hits skip the queue,
 * setup, run and serialize stages (the stored bytes are spliced into
 * the reply), so those stages are summarized over the computed jobs;
 * decode, reply and the client-side remainder over every job.
 */
void
reportSpans(MetricSet &m, const LoadResult &load)
{
    std::vector<std::vector<double>> spans(std::size(kSpans));
    std::vector<double> clientMs;
    for (const JobRecord &rec : load.jobs) {
        if (!rec.ok || !rec.frame.contains("spans"))
            continue;
        const Json &sp = rec.frame.at("spans");
        for (std::size_t s = 0; s < std::size(kSpans); ++s) {
            const bool hitSkips = s >= 1 && s <= 4;
            if (!(rec.plan.cached && hitSkips))
                spans[s].push_back(
                    sp.at(std::string(kSpans[s]) + "_s").asDouble() *
                    1e3);
        }
        clientMs.push_back(rec.clientMs -
                           sp.at("total_s").asDouble() * 1e3);
    }
    for (std::size_t s = 0; s < std::size(kSpans); ++s)
        m.percentile(std::string("serve.") + kSpans[s] + "_ms_p50",
                     spans[s], 0.5);
    m.percentile("serve.queue_ms_p90", spans[1], 0.9);
    m.percentile("serve.client_ms_p50", clientMs, 0.5);
}

double
ratio(double num, double den)
{
    return den > 0 ? num / den : 0.0;
}

} // namespace

WorkloadResult
runServeMix(const RunConfig &cfg)
{
    WorkloadResult out;
    MetricSet &m = out.metrics;
    const SweepShape shape{0.02, 0, {"xsbench", "spmv"},
                           {"DECTED", "Killi 1:256"}};
    constexpr std::uint64_t kCachedSeeds = 2;
    // 24 of them computed: a p50 needs 20.
    constexpr std::uint64_t kMinJobs = 48;
    const std::uint64_t cachedBase = seedBase(cfg.seed, 1);
    const std::uint64_t freshBase = seedBase(cfg.seed, 2);
    const unsigned clients = cfg.threads;
    const std::string socket = cfg.runDir + "/kserved.sock";
    const std::vector<std::string> argv = {
        cfg.kservedBin, "socket=" + socket,
        "threads=" + std::to_string(cfg.threads), "io-threads=1"};

    // Set-up: start the daemon and pre-warm the cached seed set.
    Daemon daemon;
    std::vector<double> setupS;
    std::vector<std::string> warmText(kCachedSeeds);
    for (int rep = 0; rep < kSetupReps; ++rep) {
        if (rep > 0)
            daemon.stop();
        const Clock::time_point t0 = Clock::now();
        std::string err;
        if (!daemon.start(argv, cfg.runDir, cfg.runDir + "/kserved.log",
                          socket, &err)) {
            out.fail("kserved: " + err);
            return out;
        }
        // One connection, one seed after another: the sum of a few
        // jobs is steadier than the slowest of several in parallel.
        Client client;
        if (!daemon.connect(client, &err)) {
            out.fail("pre-warm connect: " + err);
            return out;
        }
        std::vector<JobRecord> warm;
        for (std::uint64_t s = 0; s < kCachedSeeds; ++s) {
            const JobPlan p{cachedBase + s, false};
            warm.push_back(runJob(client, p, submitFrame(shape, p.seed)));
        }
        setupS.push_back(secondsSince(t0));
        for (std::uint64_t s = 0; s < kCachedSeeds; ++s) {
            if (!warm[s].ok) {
                out.fail("pre-warm: " + warm[s].error);
                return out;
            }
            warmText[s] = warm[s].frame.at("result").toString(0);
        }
    }

    // Even jobs are cache reads of the warm set, odd jobs never-seen
    // seeds.
    const auto plan = [&](std::uint64_t i) {
        return i % 2 == 0
            ? JobPlan{cachedBase + (i / 2) % kCachedSeeds, true}
            : JobPlan{freshBase + i, false};
    };
    LoadResult load, traced;
    Json before, after;
    if (!cfg.trace) {
        load = closedLoop(daemon, clients, cfg.seconds, kMinJobs, plan,
                          shape);
    } else {
        // Untraced half, then the traced half bracketed by scrapes
        // (fresh seeds continue past the first half's).
        load = closedLoop(daemon, clients, cfg.seconds / 2, kMinJobs, plan,
                          shape);
        const std::uint64_t offset = 2 * load.jobs.size() + 2;
        before = query(daemon, "metrics");
        traced = closedLoop(
            daemon, clients, cfg.seconds / 2, kMinJobs,
            [&](std::uint64_t i) { return plan(i + offset); }, shape);
        after = query(daemon, "metrics");
    }
    const double rss = daemon.peakRssMb();
    ++out.ops;
    if (!daemon.stop())
        out.fail("kserved did not drain cleanly");

    accountJobs(load, out);
    accountJobs(traced, out);
    for (const LoadResult *l : {&load, &traced}) {
        for (const JobRecord &rec : l->jobs) {
            if (!rec.ok || !rec.plan.cached)
                continue;
            ++out.ops;
            if (rec.frame.at("result").toString(0) !=
                warmText[rec.plan.seed - cachedBase])
                out.fail("cache hit for seed " +
                         std::to_string(rec.plan.seed) +
                         " differs from the reply that filled it");
        }
    }
    killi::Rng pick(cfg.seed ^ 0x7365727665ULL);
    checkAgainstDirect(load, shape, false, 2, pick, 1, out);
    checkAgainstDirect(load, shape, true, 1, pick, 1, out);

    const std::vector<double> cachedMs = latencies(load, true);
    const std::vector<double> uncachedMs = latencies(load, false);
    const double jobsPerS = ratio(double(okJobs(load)), load.wallS);
    m.set("setup_s", median(setupS), setupS.size(),
          "median of daemon start + pre-warm");
    m.set("rss_mb", rss, 0, "kserved peak resident set");
    m.set("throughput_per_s", jobsPerS, 0, "jobs per second");
    m.percentile("latency_ms", uncachedMs, 0.5);
    m.set("jobs_per_s", jobsPerS);
    m.set("clients", clients);
    m.percentile("cached_ms_p50", cachedMs, 0.5);
    m.percentile("cached_ms_p90", cachedMs, 0.9);
    m.percentile("uncached_ms_p50", uncachedMs, 0.5);
    m.percentile("uncached_ms_p90", uncachedMs, 0.9);

    if (cfg.trace) {
        // Spans are recorded by the daemon on every job, traced or
        // not; both halves feed the span percentiles.
        LoadResult both = load;
        both.jobs.insert(both.jobs.end(), traced.jobs.begin(),
                         traced.jobs.end());
        reportSpans(m, both);
        const auto delta = [&](const std::string &name) {
            return familyValue(after, name) - familyValue(before, name);
        };
        const double hits = delta("kserved_cache_hits_total");
        const double misses = delta("kserved_cache_misses_total");
        m.set("serve.cache_hit_frac", ratio(hits, hits + misses));
        const double whits = delta("kserved_warm_store_hits_total");
        const double wmisses = delta("kserved_warm_store_misses_total");
        m.set("serve.warm_hit_frac", ratio(whits, whits + wmisses));
        m.set("serve.queue_peak",
              familyValue(after, "kserved_queue_peak_depth"));
        m.set("serve.rejected", delta("kserved_rejections_total"));
        m.set("trace_overhead_frac",
              ratio(double(okJobs(load)), load.wallS) /
                      ratio(double(okJobs(traced)), traced.wallS) -
                  1.0,
              0, "untraced / traced jobs per second - 1");
    }
    return out;
}

WorkloadResult
runFleetCampaign(const RunConfig &cfg)
{
    WorkloadResult out;
    MetricSet &m = out.metrics;
    const SweepShape shape{0.01, 0, killi::workloadNames(),
                           {"Killi 1:256"}};
    const std::uint64_t freshBase = seedBase(cfg.seed, 3);
    // A p50 needs 20 campaigns.
    constexpr std::uint64_t kMinJobs = 24;
    const unsigned clients = std::min(2u, cfg.threads);
    const std::string socket = cfg.runDir + "/kfleetd.sock";
    const std::vector<std::string> argv = {
        cfg.kfleetdBin,
        "socket=" + socket,
        "spawn-workers=2",
        "worker-threads=1",
        "worker-bin=" + cfg.kservedBin,
        "spawn-dir=" + cfg.runDir,
        "threads=" + std::to_string(clients)};

    // Set-up: start the coordinator and its workers.
    Daemon daemon;
    std::vector<double> setupS;
    for (int rep = 0; rep < kSetupReps; ++rep) {
        if (rep > 0)
            daemon.stop();
        const Clock::time_point t0 = Clock::now();
        std::string err;
        if (!daemon.start(argv, cfg.runDir, cfg.runDir + "/kfleetd.log",
                          socket, &err)) {
            out.fail("kfleetd: " + err);
            return out;
        }
        setupS.push_back(secondsSince(t0));
    }

    const auto plan = [&](std::uint64_t i) {
        return JobPlan{freshBase + i, false};
    };
    LoadResult load, traced;
    Json statsBefore, statsAfter, metricsAfter;
    if (!cfg.trace) {
        load = closedLoop(daemon, clients, cfg.seconds, kMinJobs, plan,
                          shape);
    } else {
        load = closedLoop(daemon, clients, cfg.seconds / 2, kMinJobs / 2,
                          plan, shape);
        const std::uint64_t offset = load.jobs.size() + 1;
        statsBefore = query(daemon, "stats");
        traced = closedLoop(
            daemon, clients, cfg.seconds / 2, kMinJobs / 2,
            [&](std::uint64_t i) { return plan(i + offset); }, shape);
        statsAfter = query(daemon, "stats");
        metricsAfter = query(daemon, "metrics");
    }
    const double rss = daemon.peakRssMb();
    ++out.ops;
    if (!daemon.stop())
        out.fail("kfleetd did not drain cleanly");

    accountJobs(load, out);
    accountJobs(traced, out);
    for (const LoadResult *l : {&load, &traced}) {
        for (const JobRecord &rec : l->jobs) {
            if (!rec.ok)
                continue;
            ++out.ops;
            if (!rec.frame.contains("fleet") ||
                rec.frame.at("fleet").at("shards").size() !=
                    shape.workloads.size())
                out.fail("campaign seed " +
                         std::to_string(rec.plan.seed) +
                         " lacks one shard per proxy");
        }
    }
    killi::Rng pick(cfg.seed ^ 0x666c656574ULL);
    checkAgainstDirect(load, shape, false, 1, pick, cfg.threads, out);

    const std::vector<double> campaignMs = latencies(load, false);
    const double jobsPerS = ratio(double(okJobs(load)), load.wallS);
    m.set("setup_s", median(setupS), setupS.size(),
          "median of kfleetd + worker start");
    m.set("rss_mb", rss, 0, "kfleetd + workers peak resident set");
    m.set("throughput_per_s", jobsPerS, 0, "campaigns per second");
    m.percentile("latency_ms", campaignMs, 0.5);
    m.set("jobs_per_s", jobsPerS);
    m.set("clients", clients);
    m.percentile("uncached_ms_p50", campaignMs, 0.5);
    m.percentile("uncached_ms_p90", campaignMs, 0.9);

    if (cfg.trace) {
        const auto ledger = [](const Json &stats, const char *key) {
            return stats.isNull() ? 0.0
                                  : stats.at("stats").at("fleet").at(key)
                                        .asDouble();
        };
        const auto delta = [&](const char *key) {
            return ledger(statsAfter, key) - ledger(statsBefore, key);
        };
        const double dispatched = delta("shards_dispatched");
        const double completed = delta("shards_completed");
        m.set("fleet.shards_dispatched", dispatched);
        m.set("fleet.shards_completed", completed);
        m.set("fleet.useful_frac", ratio(completed, dispatched));
        m.set("fleet.hedges", delta("hedges"));
        m.set("fleet.steals", delta("steals"));
        m.set("fleet.peer_fetches", delta("peer_fetches"));
        const Json *shardSeconds =
            family(metricsAfter, "kfleet_shard_seconds");
        if (shardSeconds && shardSeconds->at("metrics").size() > 0)
            m.set("fleet.shard_s_p50",
                  shardSeconds->at("metrics").at(std::size_t{0})
                      .at("p50").asDouble(),
                  std::size_t(shardSeconds->at("metrics")
                                  .at(std::size_t{0}).at("count")
                                  .asInt()),
                  "kfleet_shard_seconds histogram since start");
        else
            m.unavailable("fleet.shard_s_p50",
                          "kfleet_shard_seconds not exported");
        m.set("trace_overhead_frac",
              ratio(double(okJobs(load)), load.wallS) /
                      ratio(double(okJobs(traced)), traced.wallS) -
                  1.0,
              0, "untraced / traced campaigns per second - 1");
    }
    return out;
}

} // namespace perfbench
