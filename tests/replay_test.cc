/**
 * @file
 * Deterministic record-replay and divergence bisection (src/replay).
 *
 * Covers the PR's acceptance criteria end to end: a fig4 sweep
 * point, a kserved job (over a loopback server), and a kcheck
 * scenario each record and replay bit-identically on the same
 * build; tampered recordings are flagged at their first divergent
 * stream entry; and the bisector, fed two runs that differ by one
 * seeded SECDED decode perturbation at a *known* (tick, seq),
 * reports exactly that site in O(log n) digest probes. The
 * perturbation is armed per thread, so concurrent runs on other
 * threads neither see nor consume it.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench/sweep.hh"
#include "check/checker.hh"
#include "check/scenario.hh"
#include "common/bitvec.hh"
#include "common/log.hh"
#include "common/replay_probe.hh"
#include "common/rng.hh"
#include "ecc/secded.hh"
#include "replay/bisect.hh"
#include "replay/recording.hh"
#include "replay/session.hh"
#include "serve/client/client.hh"
#include "serve/server.hh"
#include "sim/event_queue.hh"

#include "closure_events.hh"
#include "error_text.hh"

namespace killi::replay
{
namespace
{

/** The cheapest interesting sweep point: one workload, one scheme. */
SweepOptions
tinySweep()
{
    SweepOptions opt;
    opt.scale = 0.01;
    opt.warmupPasses = 0;
    opt.workloads = {"stream"};
    opt.schemes = {"Killi 1:256"};
    opt.jobs = 1;
    return opt;
}

/** Spin until @p flag is set; false once @p limit has passed. */
bool
waitFor(const std::atomic<bool> &flag,
        std::chrono::seconds limit = std::chrono::seconds(60))
{
    const auto deadline = std::chrono::steady_clock::now() + limit;
    while (!flag.load()) {
        if (std::chrono::steady_clock::now() > deadline)
            return false;
        std::this_thread::yield();
    }
    return true;
}

// ---------------------------------------------------------------
// Recorder rng segmentation
// ---------------------------------------------------------------

TEST(Recorder, SplitsRngSegmentsOnStreamLabelAndPopChanges)
{
    Recorder recorder("test");
    Rng rng(1);
    std::uint64_t v[4];
    {
        const ScopedReplayProbe scope(&recorder);
        {
            const RngStreamScope label("faultmap");
            v[0] = rng.next64();
            v[1] = rng.next64();
        }
        // Stream change closes the faultmap segment.
        v[2] = rng.next64();
        // Pop change closes the next one.
        recorder.onEventPop(10, 0);
        v[3] = rng.next64();
    }
    const Recording &rec = recorder.recording();
    ASSERT_EQ(rec.rng.size(), 2u); // the tail is still in flight
    EXPECT_EQ(rec.streams.at(rec.rng[0].stream), "faultmap");
    EXPECT_EQ(rec.rng[0].pop, 0u);
    EXPECT_EQ(rec.rng[0].count, 2u);
    std::uint64_t expect = textDigest("faultmap");
    expect = rollDigest(expect, v[0]);
    expect = rollDigest(expect, v[1]);
    EXPECT_EQ(rec.rng[0].digest, expect);
    EXPECT_EQ(rec.streams.at(rec.rng[1].stream), "?");
    EXPECT_EQ(rec.rng[1].pop, 0u);
    EXPECT_EQ(rec.rng[1].count, 1u);
    EXPECT_EQ(rec.rng[1].digest, rollDigest(textDigest("?"), v[2]));

    // finish() flushes the in-flight tail exactly once.
    recorder.finish("r");
    ASSERT_EQ(rec.rng.size(), 3u);
    EXPECT_EQ(rec.rng[2].pop, 1u);
    EXPECT_EQ(rec.rng[2].count, 1u);
    EXPECT_EQ(rec.rng[2].digest, rollDigest(textDigest("?"), v[3]));
    recorder.finish("r");
    EXPECT_EQ(rec.rng.size(), 3u);
}

// ---------------------------------------------------------------
// Directed mini-simulation harness
// ---------------------------------------------------------------

/**
 * A deterministic toy run with a fully known schedule: eight events
 * at ticks 10..80, each performing one SECDED decode of a clean
 * codeword and one RNG draw — plus one *extra* draw whenever the
 * decode reports anything but NoError. Arming the decode
 * perturbation at evaluation N therefore changes the draw count of
 * exactly pop N, i.e. the injected divergence site is (tick, seq)
 * of the Nth event, known a priori.
 */
constexpr int kHarnessEvents = 8;

std::string
runHarness(ReplayProbe *probe, std::uint64_t perturbNth)
{
    const ScopedReplayProbe scope(probe);
    const ScopedPerturbDecode perturb(perturbNth);
    EventQueue q;
    ClosureEvents ev(q);
    const Secded code(64);
    Rng rng(7);
    std::string log;
    for (int i = 0; i < kHarnessEvents; ++i) {
        ev.schedule(Tick(10 * (i + 1)), [&] {
            BitVec data(64);
            BitVec check = code.encode(data);
            const DecodeResult r = code.decode(data, check);
            rng.next64();
            if (r.status != DecodeStatus::NoError)
                rng.next64();
            log += r.status == DecodeStatus::NoError ? '.' : 'X';
        });
    }
    q.run();
    return log;
}

Recording
recordHarness(std::uint64_t perturbNth)
{
    Recorder recorder("test");
    recorder.recording().perturbDecode = perturbNth;
    const std::string result = runHarness(&recorder, perturbNth);
    recorder.finish(result);
    return std::move(recorder.recording());
}

TEST(ReplayHarness, CleanRunRecordsOneSegmentPerPop)
{
    const Recording rec = recordHarness(0);
    EXPECT_EQ(rec.pops.size(), std::size_t(kHarnessEvents));
    ASSERT_EQ(rec.rng.size(), std::size_t(kHarnessEvents));
    for (int i = 0; i < kHarnessEvents; ++i) {
        EXPECT_EQ(rec.pops[i].when, Tick(10 * (i + 1)));
        EXPECT_EQ(rec.rng[i].pop, std::uint64_t(i + 1));
        EXPECT_EQ(rec.rng[i].count, 1u);
    }
    EXPECT_FALSE(rec.resultDigest.empty());
}

TEST(PerturbDecode, ArmIsInvisibleToOtherThreads)
{
    // Thread A arms its 100th evaluation while thread B decodes and
    // probes clean words the whole time. B never sees the flip, and
    // A's countdown counts A's evaluations only.
    constexpr int kNth = 100;
    const Secded code(64);
    const BitVec cleanData(64);
    const BitVec cleanCheck = code.encode(cleanData);
    std::atomic<bool> armed{false}, bRunning{false}, aDone{false};
    std::uint64_t bEvaluations = 0, bFlagged = 0;
    std::thread b([&] {
        if (!waitFor(armed))
            return;
        const auto deadline =
            std::chrono::steady_clock::now() + std::chrono::seconds(60);
        while (!aDone.load() &&
               std::chrono::steady_clock::now() < deadline) {
            BitVec data = cleanData, check = cleanCheck;
            if (code.decode(data, check).status != DecodeStatus::NoError)
                ++bFlagged;
            if (code.probe({}).status != DecodeStatus::NoError)
                ++bFlagged;
            bEvaluations += 2;
            bRunning.store(true);
        }
    });

    std::vector<int> fired;
    bool overlapped = false;
    {
        const ScopedPerturbDecode arm(kNth);
        armed.store(true);
        // B has evaluated while A is armed before A starts counting.
        overlapped = waitFor(bRunning);
        for (int i = 1; i <= 2 * kNth; ++i) {
            BitVec data = cleanData, check = cleanCheck;
            if (code.decode(data, check).status != DecodeStatus::NoError)
                fired.push_back(i);
        }
    }
    aDone.store(true);
    b.join();

    ASSERT_TRUE(overlapped);
    EXPECT_GT(bEvaluations, 0u);
    EXPECT_EQ(bFlagged, 0u);
    EXPECT_EQ(fired, std::vector<int>{kNth});
}

TEST(ReplayBisect, PinpointsSeededDecodeDivergence)
{
    const Recording a = recordHarness(0);
    const Recording b = recordHarness(4);
    const BisectReport rep = bisectRecordings(a, b);
    ASSERT_TRUE(rep.diverged);
    EXPECT_EQ(rep.stream, "rng");
    EXPECT_EQ(rep.index, 3u); // segments for pops 1..8; pop 4 differs
    EXPECT_EQ(rep.tick, Tick(40));
    EXPECT_EQ(rep.seq, a.pops[3].seq);
    // 3 streams, <= ~log2(n)+1 digest probes each.
    EXPECT_LE(rep.probes, 12u);
}

TEST(ReplayBisect, IdenticalRecordingsAreClean)
{
    const Recording a = recordHarness(0);
    const Recording b = recordHarness(0);
    const BisectReport rep = bisectRecordings(a, b);
    EXPECT_FALSE(rep.diverged) << rep.summary();
}

TEST(ReplayBisect, ProbeCountStaysLogarithmic)
{
    // Two synthetic pop streams of 4096 entries differing only at
    // index 2500: the bisector must land exactly there in O(log n)
    // probes, not scan linearly.
    Recording a, b;
    a.tool = b.tool = "test";
    for (std::uint64_t i = 0; i < 4096; ++i) {
        EventPop p;
        p.when = Tick(i);
        p.seq = i;
        a.pops.push_back(p);
        if (i == 2500)
            ++p.seq;
        b.pops.push_back(p);
    }
    a.resultDigest = b.resultDigest = "same";
    const BisectReport rep = bisectRecordings(a, b);
    ASSERT_TRUE(rep.diverged);
    EXPECT_EQ(rep.stream, "pop");
    EXPECT_EQ(rep.index, 2500u);
    EXPECT_LE(rep.probes, 3 * 13u);
}

TEST(ReplayBisect, ResultOnlyDivergenceFallsBackToResultStream)
{
    Recording a = recordHarness(0);
    Recording b = recordHarness(0);
    b.resultDigest[0] = b.resultDigest[0] == '0' ? '1' : '0';
    const BisectReport rep = bisectRecordings(a, b);
    ASSERT_TRUE(rep.diverged);
    EXPECT_EQ(rep.stream, "result");
}

// ---------------------------------------------------------------
// ScopedLogClock under replay
// ---------------------------------------------------------------

TEST(ReplayHarness, ScopedLogClockTimestampsAreReplayDeterministic)
{
    // Log timestamps come from the simulated clock, so a re-recorded
    // run must emit byte-identical "@<tick>" prefixes — wall time
    // never leaks in — and bisect clean against the first.
    const auto loggedRun = [](ReplayProbe *probe) {
        ScopedLogCapture capture;
        const ScopedReplayProbe scope(probe);
        EventQueue q;
    ClosureEvents ev(q);
        const ScopedLogClock clock([&q] { return q.curTick(); });
        Rng rng(3);
        for (int i = 0; i < 3; ++i) {
            ev.schedule(Tick(5 * (i + 1)), [&] {
                rng.next64();
                inform("harness event");
            });
        }
        q.run();
        return capture.messages();
    };

    Recorder recorder("test");
    const auto recorded = loggedRun(&recorder);
    recorder.finish("logclock");

    Recorder rerun("test");
    const auto replayed = loggedRun(&rerun);
    rerun.finish("logclock");

    const BisectReport rep =
        bisectRecordings(recorder.recording(), rerun.recording());
    EXPECT_FALSE(rep.diverged) << rep.summary();
    ASSERT_EQ(recorded.size(), 3u);
    EXPECT_NE(recorded[0].find("@5"), std::string::npos)
        << recorded[0];
    EXPECT_EQ(recorded, replayed);
}

// ---------------------------------------------------------------
// Recording file format
// ---------------------------------------------------------------

TEST(RecordingFormat, FileRoundTripPreservesStreams)
{
    const Recording rec = recordHarness(0);
    const std::string path = "replay_test_roundtrip.krr.json";
    rec.writeFile(path);
    const Recording back = Recording::loadFile(path);
    std::remove(path.c_str());

    EXPECT_EQ(back.tool, rec.tool);
    EXPECT_EQ(back.resultDigest, rec.resultDigest);
    ASSERT_EQ(back.rng.size(), rec.rng.size());
    ASSERT_EQ(back.pops.size(), rec.pops.size());
    for (std::size_t i = 0; i < rec.rng.size(); ++i) {
        // Digests exceed 2^53; the string encoding must preserve
        // them exactly through the double-backed JSON layer.
        EXPECT_EQ(back.rng[i].digest, rec.rng[i].digest);
        EXPECT_EQ(back.rng[i].count, rec.rng[i].count);
        EXPECT_EQ(back.rng[i].pop, rec.rng[i].pop);
    }
    for (std::size_t i = 0; i < rec.pops.size(); ++i) {
        EXPECT_EQ(back.pops[i].when, rec.pops[i].when);
        EXPECT_EQ(back.pops[i].seq, rec.pops[i].seq);
    }
    const BisectReport rep = bisectRecordings(rec, back);
    EXPECT_FALSE(rep.diverged) << rep.summary();
}

TEST(RecordingFormat, RejectsMalformedDocuments)
{
    EXPECT_EQ(errorText([] { Recording::fromJson(Json::string("nope")); }),
              "recording: document must be an object");
    Json doc = recordHarness(0).toJson();
    doc.set("format", Json::string("killi-recording-v2"));
    EXPECT_NE(errorText([&] { Recording::fromJson(doc); })
                  .find(kRecordingFormat),
              std::string::npos);
}

TEST(RecordingFormat, PopsKeepTheV1ZeroColumn)
{
    // v1 writes each pop as [when, 0, seq]: the middle column is kept
    // so older files still load and their checkpoints still verify.
    const Json doc = recordHarness(0).toJson();
    Json first = Json::array();
    first.push(Json::number(std::uint64_t(10)));
    first.push(Json::number(std::uint64_t(0)));
    first.push(Json::number(std::uint64_t(0)));
    ASSERT_EQ(doc.at("pops").size(), std::size_t(kHarnessEvents));
    EXPECT_EQ(doc.at("pops").at(std::size_t(0)), first);
    EXPECT_EQ(Recording::fromJson(doc).toJson().toString(0),
              doc.toString(0));

    // Any other middle value is rejected, naming the column.
    Json bad = doc;
    Json pop = Json::array();
    pop.push(Json::number(std::uint64_t(5)));
    pop.push(Json::number(std::uint64_t(1)));
    pop.push(Json::number(std::uint64_t(3)));
    Json pops = Json::array();
    pops.push(std::move(pop));
    bad.set("pops", std::move(pops));
    EXPECT_NE(errorText([&] { Recording::fromJson(bad); })
                  .find("pop priority"),
              std::string::npos);
}

// ---------------------------------------------------------------
// Sweep record/replay (the fig4 acceptance point)
// ---------------------------------------------------------------

/** Folds every event-queue pop into FNV-1a as (when, 0, seq) — the
 *  0 stands where the pinned digest once mixed a priority that was
 *  always 0; RNG draws and trace records pass through untouched. */
class PopDigestProbe : public ReplayProbe
{
  public:
    void onRngDraw(std::uint64_t) override {}

    void
    onEventPop(Tick when, std::uint64_t seq) override
    {
        ++pops;
        mix(when);
        mix(0);
        mix(seq);
    }

    void onTraceRecord(Tick, std::uint32_t, const char *,
                       std::uint64_t) override
    {
    }

    std::uint64_t pops = 0;
    std::uint64_t digest = 0xcbf29ce484222325ull;

  private:
    void
    mix(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            digest ^= (v >> (8 * i)) & 0xFF;
            digest *= 0x100000001b3ull;
        }
    }
};

TEST(ReplaySweep, Seed42PointPopStreamIsPinned)
{
    // Literal pop count and (when, seq) digest of one fig4
    // point. The committed recordings log no pops, so this is the
    // artifact that pins the event core's heap order: any change to
    // what is scheduled, when, or in which order moves the digest.
    SweepOptions opt;
    opt.scale = 0.02;
    opt.warmupPasses = 0;
    opt.workloads = {"xsbench"};
    opt.schemes = {"Killi 1:256"};
    opt.jobs = 1;
    PopDigestProbe probe;
    {
        const ScopedReplayProbe scope(&probe);
        runEvaluationSweep(opt);
    }
    EXPECT_EQ(probe.pops, 40455u);
    EXPECT_EQ(probe.digest, 0xb8bee1f5ce48850bull)
        << std::hex << "digest 0x" << probe.digest;
}

TEST(ReplaySweep, RecordThenReplayIsBitIdentical)
{
    const SweepSession recorded = recordSweep(tinySweep());
    // The campaign samples its die once, for both points: one rng
    // segment, the fault-map construction stream.
    ASSERT_EQ(recorded.recording.rng.size(), 1u);
    EXPECT_EQ(recorded.recording.streams.at(
                  recorded.recording.rng[0].stream),
              "faultmap");
    EXPECT_FALSE(recorded.recording.pops.empty());
    EXPECT_EQ(recorded.recording.marks.size(), 2u); // 2 sweep points

    const SweepSession replayed = replaySweep(recorded.recording);
    EXPECT_TRUE(replayed.verified)
        << replayed.divergence.summary();
    EXPECT_EQ(replayed.resultText, recorded.resultText);
}

TEST(ReplaySweep, TamperedRngSegmentIsFlaggedAsFaultMapDivergence)
{
    const SweepSession recorded = recordSweep(tinySweep());
    Recording tampered = recorded.recording;
    ASSERT_FALSE(tampered.rng.empty());
    tampered.rng[0].digest ^= 1;

    const SweepSession replayed = replaySweep(tampered);
    ASSERT_FALSE(replayed.verified);
    const BisectReport &rep = replayed.divergence;
    EXPECT_EQ(rep.stream, "rng");
    EXPECT_EQ(rep.index, 0u);
    // The first segment is the fault-map construction stream.
    EXPECT_NE(rep.a.find("faultmap"), std::string::npos) << rep.a;
}

TEST(ReplaySweep, ShortPopStreamDivergesWhereItEnds)
{
    const SweepSession recorded = recordSweep(tinySweep());
    const std::vector<EventPop> &pops = recorded.recording.pops;
    ASSERT_FALSE(pops.empty());
    const std::size_t n = pops.size();
    const std::string lastPop = "(" + std::to_string(pops[n - 1].when) +
                                ", " + std::to_string(pops[n - 1].seq) +
                                ")";

    // A file one pop short: the re-run (side b) has the pop the file
    // (side a) lacks.
    Recording truncated = recorded.recording;
    truncated.pops.pop_back();
    const SweepSession shortFile = replaySweep(truncated);
    ASSERT_FALSE(shortFile.verified);
    EXPECT_EQ(shortFile.divergence.stream, "pop");
    EXPECT_EQ(shortFile.divergence.index, n - 1);
    EXPECT_EQ(shortFile.divergence.a,
              "(stream ended at " + std::to_string(n - 1) + " pops)");
    EXPECT_EQ(shortFile.divergence.b, lastPop);

    // A file one pop long: the re-run ends first.
    Recording extended = recorded.recording;
    extended.pops.push_back(EventPop{pops[n - 1].when, pops[n - 1].seq + 1});
    const SweepSession shortRun = replaySweep(extended);
    ASSERT_FALSE(shortRun.verified);
    EXPECT_EQ(shortRun.divergence.stream, "pop");
    EXPECT_EQ(shortRun.divergence.index, n);
    EXPECT_EQ(shortRun.divergence.b,
              "(stream ended at " + std::to_string(n) + " pops)");
}

TEST(ReplaySweep, CrossModeBisectPinpointsFaultMapSampling)
{
    // Two runs that differ only in the die's seed sample different
    // fault maps — a genuinely different draw stream from the very
    // first segment. The honest bisect verdict is therefore
    // "diverged at fault-map construction", not a later in-sim site.
    SweepOptions other = tinySweep();
    other.scenario.seed = tinySweep().scenario.seed + 1;
    const SweepSession a = recordSweep(tinySweep());
    const SweepSession b = recordSweep(other);
    ASSERT_FALSE(a.recording.rng.empty());
    const BisectReport rep =
        bisectRecordings(a.recording, b.recording);
    ASSERT_TRUE(rep.diverged);
    EXPECT_EQ(rep.stream, "rng");
    EXPECT_EQ(rep.index, 0u);
    EXPECT_NE(rep.a.find("faultmap"), std::string::npos) << rep.a;
}

/** Raises a flag at the first event its thread pops. */
class SimulatingProbe : public ReplayProbe
{
  public:
    void onRngDraw(std::uint64_t) override {}
    void onEventPop(Tick, std::uint64_t) override
    {
        simulating.store(true);
    }
    void onTraceRecord(Tick, std::uint32_t, const char *,
                       std::uint64_t) override
    {
    }

    std::atomic<bool> simulating{false};
};

TEST(ReplaySweep, PerturbedReplayVerifiesBesidePlainSweeps)
{
    // A perturb-decode recording replays only if its own run, and
    // nothing else, consumes the armed countdown — also while another
    // thread simulates plain sweeps, as a kserved worker does beside
    // a replay job.
    const SweepSession clean = recordSweep(tinySweep());
    const SweepSession perturbed = recordSweep(tinySweep(), 1);
    ASSERT_EQ(perturbed.recording.perturbDecode, 1u);
    // The flip changes the run's ecc/error/dfh trace records, so a
    // replay that lost it diverges. With those categories compiled
    // out the two recordings can agree.
    constexpr std::uint32_t flipCats =
        TraceCat::Dfh | TraceCat::Ecc | std::uint32_t(TraceCat::Error);
    if ((kCompiledTraceMask & flipCats) == flipCats) {
        ASSERT_TRUE(bisectRecordings(clean.recording, perturbed.recording)
                        .diverged);
    }

    SimulatingProbe probe;
    std::atomic<bool> stop{false};
    std::thread plain([&] {
        const ScopedReplayProbe scope(&probe);
        const auto deadline =
            std::chrono::steady_clock::now() + std::chrono::seconds(60);
        while (!stop.load() &&
               std::chrono::steady_clock::now() < deadline)
            runEvaluationSweep(tinySweep());
    });
    const bool overlapped = waitFor(probe.simulating);
    const SweepSession replayed = replaySweep(perturbed.recording);
    stop.store(true);
    plain.join();

    ASSERT_TRUE(overlapped);
    EXPECT_TRUE(replayed.verified) << replayed.divergence.summary();
    EXPECT_EQ(replayed.resultText, perturbed.resultText);
}

// ---------------------------------------------------------------
// kcheck scenario record/replay
// ---------------------------------------------------------------

TEST(ReplayScenario, RecordThenReplayIsBitIdentical)
{
    const check::Scenario sc = check::Scenario::generate(1234);
    const CheckSession recorded = recordScenario(sc);
    EXPECT_FALSE(recorded.recording.rng.empty());
    EXPECT_EQ(recorded.recording.tool, "kcheck");

    const CheckSession replayed = replayScenario(recorded.recording);
    EXPECT_TRUE(replayed.verified)
        << replayed.divergence.summary();
    EXPECT_EQ(replayed.resultText, recorded.resultText);
}

TEST(ReplayScenario, TamperedResultDigestIsFlagged)
{
    const check::Scenario sc = check::Scenario::generate(99);
    const CheckSession recorded = recordScenario(sc);
    Recording tampered = recorded.recording;
    tampered.resultDigest[0] =
        tampered.resultDigest[0] == '0' ? '1' : '0';
    const CheckSession replayed = replayScenario(tampered);
    ASSERT_FALSE(replayed.verified);
    EXPECT_EQ(replayed.divergence.stream, "result");
}

TEST(ReplayScenario, MaxViolationsMustBeAPositiveInteger)
{
    const Recording clean =
        recordScenario(check::Scenario::generate(7)).recording;
    for (const Json &bad : {Json::number(std::int64_t{-1}),
                            Json::number(2.5), Json::number(1e300)}) {
        SCOPED_TRACE(bad.toString(0));
        Recording rec = clean;
        rec.meta.set("max_violations", bad);
        EXPECT_NE(errorText([&] { replayScenario(rec); })
                      .find("meta.max_violations"),
                  std::string::npos);
    }
}

// ---------------------------------------------------------------
// kserved record/replay jobs
// ---------------------------------------------------------------

Json
tinySubmit()
{
    Json options = Json::object();
    options.set("scale", Json::number(0.002));
    options.set("warmup", Json::number(std::uint64_t{0}));
    options.set("seed", Json::number(std::uint64_t{42}));
    options.set("workloads", Json::string("spmv"));
    options.set("schemes", Json::string("DECTED"));
    Json req = Json::object();
    req.set("type", Json::string("submit"));
    req.set("options", std::move(options));
    req.set("stream", Json::boolean(false));
    return req;
}

TEST(ReplayServe, RecordedJobReplaysBitIdenticalAndBypassesCache)
{
    serve::ServerOptions so;
    so.port = 0;
    so.threads = 2;
    serve::Server server(so);
    std::string err;
    ASSERT_TRUE(server.start(&err)) << err;
    serve::Client client;
    ASSERT_TRUE(client.connectTcp(server.boundPort(), &err)) << err;
    ScopedLogCapture quiet;

    // Plain submit populates the cache...
    Json plain;
    ASSERT_TRUE(client.submit(tinySubmit(), plain, {}, &err)) << err;
    ASSERT_EQ(plain.at("outcome").asString(), "done");

    // ...but a record job for the same point must bypass it (no
    // cached:true, and a recording in the result).
    Json recReq = tinySubmit();
    recReq.set("record", Json::boolean(true));
    Json recorded;
    ASSERT_TRUE(client.submit(recReq, recorded, {}, &err)) << err;
    ASSERT_EQ(recorded.at("outcome").asString(), "done");
    EXPECT_FALSE(recorded.at("cached").asBool());
    ASSERT_TRUE(recorded.at("result").contains("recording"));

    // The recorded job's sweep body matches the plain run.
    EXPECT_EQ(
        recorded.at("result").at("workloads").toString(0),
        plain.at("result").at("workloads").toString(0));

    // A replay job re-runs from the recording alone, bit-identical.
    Json repReq = Json::object();
    repReq.set("type", Json::string("submit"));
    repReq.set("replay", recorded.at("result").at("recording"));
    repReq.set("stream", Json::boolean(false));
    Json replayed;
    ASSERT_TRUE(client.submit(repReq, replayed, {}, &err)) << err;
    ASSERT_EQ(replayed.at("outcome").asString(), "done");
    EXPECT_FALSE(replayed.at("cached").asBool());
    const Json &verdict = replayed.at("result").at("replay");
    EXPECT_TRUE(verdict.at("verified").asBool())
        << verdict.toString(0);

    // The record/replay jobs never polluted the cache: a plain
    // submit still hits the original entry, whose stored bytes
    // carry no recording.
    Json again;
    ASSERT_TRUE(client.submit(tinySubmit(), again, {}, &err)) << err;
    EXPECT_TRUE(again.at("cached").asBool());
    EXPECT_FALSE(again.at("result").contains("recording"));
    EXPECT_EQ(again.at("result").toString(0),
              plain.at("result").toString(0));

    server.stop();
}

TEST(ReplayServe, ReplayJobRejectsOptionsAlongside)
{
    serve::ServerOptions so;
    so.port = 0;
    so.threads = 1;
    serve::Server server(so);
    std::string err;
    ASSERT_TRUE(server.start(&err)) << err;
    serve::Client client;
    ASSERT_TRUE(client.connectTcp(server.boundPort(), &err)) << err;

    const Recording rec = recordHarness(0);
    Json req = Json::object();
    req.set("type", Json::string("submit"));
    req.set("replay", rec.toJson());
    req.set("options", Json::object());
    ASSERT_TRUE(client.send(req));
    Json frame;
    ASSERT_TRUE(client.recvWithin(frame, 30000, &err)) << err;
    EXPECT_EQ(frame.at("type").asString(), "error");
    EXPECT_EQ(frame.at("code").asString(), "bad_request");
    server.stop();
}

/**
 * A real sweep recording with one meta.options member replaced, or
 * with @p topLevel one member of the document itself: what a
 * corrupted, hand-edited or retired recording file looks like once
 * `kcli submit replay=` ships it inline.
 */
Json
tamperedSweepRecording(const char *key, Json value, bool topLevel)
{
    static const Json clean = recordSweep(tinySweep()).recording.toJson();
    if (topLevel) {
        Json rec = clean;
        rec.set(key, std::move(value));
        return rec;
    }
    Json options = clean.at("meta").at("options");
    options.set(key, std::move(value));
    Json meta = clean.at("meta");
    meta.set("options", std::move(options));
    Json rec = clean;
    rec.set("meta", std::move(meta));
    return rec;
}

TEST(ReplayServe, TamperedRecordingsGetErrorFramesAndServerKeepsServing)
{
    Json unknownWorkload = Json::array();
    unknownWorkload.push(Json::string("nope"));
    Json unknownScheme = Json::array();
    unknownScheme.push(Json::string("Killi 1:3"));
    Json arrayParams = Json::object();
    arrayParams.set("params", Json::array());
    const struct
    {
        const char *key;
        Json value;
        const char *why;
        bool topLevel = false;
    } cases[] = {
        {"workloads", unknownWorkload, "unknown workload 'nope'"},
        {"schemes", unknownScheme, "unknown scheme 'Killi 1:3'"},
        {"warmup", Json::number(std::int64_t{-1}),
         "\"warmup\" must be an integer in [0, 16]"},
        {"scale", Json::number(0.0),
         "\"scale\" must be in [0.001, 1000]"},
        {"scale", Json::string("0.02"), "\"scale\" must be a number"},
        {"scenario", arrayParams, "scenario: params must be an object"},
        // Recordings of the removed global reference mode.
        {"reference_mode", Json::boolean(true),
         "reference mode was removed", true},
    };

    serve::ServerOptions so;
    so.port = 0;
    so.threads = 1;
    serve::Server server(so);
    std::string err;
    ASSERT_TRUE(server.start(&err)) << err;
    serve::Client client;
    ASSERT_TRUE(client.connectTcp(server.boundPort(), &err)) << err;
    for (const auto &c : cases) {
        SCOPED_TRACE(c.key);
        // A bad_request error frame, never a job that takes the
        // daemon down...
        Json req = Json::object();
        req.set("type", Json::string("submit"));
        req.set("replay",
                tamperedSweepRecording(c.key, c.value, c.topLevel));
        req.set("stream", Json::boolean(false));
        ASSERT_TRUE(client.send(req));
        Json frame;
        ASSERT_TRUE(client.recvWithin(frame, 30000, &err)) << err;
        ASSERT_EQ(frame.at("type").asString(), "error")
            << frame.toString(0);
        EXPECT_EQ(frame.at("code").asString(), "bad_request");
        EXPECT_NE(frame.at("error").asString().find(c.why),
                  std::string::npos)
            << frame.at("error").asString();

        // ...and the daemon still answers afterwards.
        Json ping = Json::object();
        ping.set("type", Json::string("ping"));
        ASSERT_TRUE(client.send(ping));
        ASSERT_TRUE(client.recvWithin(frame, 30000, &err)) << err;
        EXPECT_EQ(frame.at("type").asString(), "pong");
    }
    server.stop();
}

} // namespace
} // namespace killi::replay
