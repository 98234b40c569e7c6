/**
 * @file
 * Tests for the ktrace layer: category masks (compile-time grammar
 * and runtime filtering), ring wraparound accounting, event-array /
 * Chrome trace_event serialization validated through the strict JSON
 * parser, the single-owner contract, StatTimeseries semantics,
 * EventQueue periodic sampling, and trace determinism across
 * repeated runs.
 */

#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "check/checker.hh"
#include "check/scenario.hh"
#include "common/log.hh"
#include "sim/event_queue.hh"
#include "trace/timeseries.hh"
#include "trace/trace.hh"

#include "closure_events.hh"

using namespace killi;

namespace
{

/** Record @p n events with increasing ticks into @p sink. */
void
recordN(TraceSink &sink, std::uint64_t n,
        TraceCat cat = TraceCat::Sim)
{
    for (std::uint64_t i = 0; i < n; ++i)
        sink.record(Tick(i), cat, "ev", {{"i", i}});
}

} // namespace

// ---- category mask grammar -----------------------------------------

TEST(TraceMask, CompileTimeGrammar)
{
    static_assert(traceMaskFromList("all") == kAllTraceCats);
    static_assert(traceMaskFromList("*") == kAllTraceCats);
    static_assert(traceMaskFromList("") == 0);
    static_assert(traceMaskFromList("none") == 0);
    static_assert(traceMaskFromList("dfh") ==
                  std::uint32_t(TraceCat::Dfh));
    static_assert(traceMaskFromList("dfh,ecc,l2") ==
                  (TraceCat::Dfh | TraceCat::Ecc |
                   std::uint32_t(TraceCat::L2)));
    static_assert(traceMaskFromList("bogus") == kBadTraceMask);
    static_assert(traceMaskFromList("dfh,bogus") == kBadTraceMask);
    // Stray commas are harmless.
    static_assert(traceMaskFromList(",dfh,,ecc,") ==
                  (TraceCat::Dfh | TraceCat::Ecc));
}

TEST(TraceMask, ParseReportsUnknownNames)
{
    std::uint32_t mask = 0;
    std::string err;
    EXPECT_TRUE(parseTraceCats("dfh,error", mask, &err));
    EXPECT_EQ(mask, TraceCat::Dfh | TraceCat::Error);

    EXPECT_FALSE(parseTraceCats("dfh,nope", mask, &err));
    EXPECT_NE(err.find("nope"), std::string::npos)
        << "error should name the bad token: " << err;
    // The message lists the known categories for discoverability.
    EXPECT_NE(err.find("dfh"), std::string::npos) << err;

    // "stats" names no category: asking for it is an error, not a
    // silent no-op.
    EXPECT_FALSE(parseTraceCats("stats", mask, &err));
    EXPECT_NE(err.find("'stats'"), std::string::npos) << err;
    EXPECT_EQ(err.find(",stats,"), std::string::npos) << err;
}

TEST(TraceMask, EveryCategoryRoundTripsThroughItsName)
{
    for (unsigned bit = 0; bit < 8; ++bit) {
        if (bit == 6)
            continue; // bit 6 names no category
        const TraceCat cat = TraceCat(1u << bit);
        std::uint32_t mask = 0;
        ASSERT_TRUE(parseTraceCats(traceCatName(cat), mask));
        EXPECT_EQ(mask, std::uint32_t(cat))
            << "category " << traceCatName(cat);
    }
}

// ---- runtime filtering ---------------------------------------------

TEST(TraceSink, RuntimeMaskFiltersCategories)
{
    if (!(kCompiledTraceMask & std::uint32_t(TraceCat::Dfh)))
        GTEST_SKIP() << "Dfh trace category compiled out";
    TraceSink sink;
    sink.setMask(std::uint32_t(TraceCat::Dfh));
    Tick t = 0;
    KTRACE(&sink, ++t, TraceCat::Dfh, "kept", {"x", 1});
    KTRACE(&sink, ++t, TraceCat::Ecc, "filtered", {"x", 2});
    KTRACE(&sink, ++t, TraceCat::L2, "filtered", {"x", 3});

    const auto events = sink.events();
    ASSERT_EQ(events.size(), 1u);
    EXPECT_STREQ(events[0].name, "kept");
    EXPECT_EQ(events[0].cat, TraceCat::Dfh);
    EXPECT_EQ(sink.recorded(), 1u);
}

TEST(TraceSink, NullSinkIsSafe)
{
    TraceSink *sink = nullptr;
    // Must not dereference; the macro guards the null itself.
    KTRACE(sink, 1, TraceCat::Sim, "nothing", {"x", 1});
    SUCCEED();
}

// ---- ring wraparound -----------------------------------------------

TEST(TraceSink, RingWraparoundKeepsNewestAndCountsDropped)
{
    TraceSink sink(8);
    recordN(sink, 20);
    EXPECT_EQ(sink.recorded(), 20u);
    EXPECT_EQ(sink.dropped(), 12u);
    EXPECT_EQ(sink.retained(), 8u);

    const auto events = sink.events();
    ASSERT_EQ(events.size(), 8u);
    // The survivors are the newest 8, still in tick order.
    for (std::size_t i = 0; i < events.size(); ++i)
        EXPECT_EQ(events[i].tick, Tick(12 + i));
}

TEST(TraceSink, SameTickEventsKeepRecordOrderAcrossTheWrap)
{
    // Records arrive out of tick order (a later event may stamp an
    // earlier tick), and the ring wraps mid-stream: events() must
    // come out tick-ordered, with same-tick events in record order.
    TraceSink sink(4);
    const Tick ticks[] = {9, 5, 7, 5, 7, 5};
    for (std::uint64_t i = 0; i < 6; ++i)
        sink.record(ticks[i], TraceCat::Sim, "ev", {{"i", i}});
    ASSERT_EQ(sink.dropped(), 2u);

    const auto events = sink.events();
    ASSERT_EQ(events.size(), 4u);
    const std::pair<Tick, std::uint64_t> want[] = {
        {5, 3}, {5, 5}, {7, 2}, {7, 4}};
    for (std::size_t k = 0; k < events.size(); ++k) {
        EXPECT_EQ(events[k].tick, want[k].first) << k;
        EXPECT_EQ(events[k].args[0].u, want[k].second) << k;
    }
}

// ---- serialization -------------------------------------------------

TEST(TraceSink, ToJsonIsOneStrictJsonObjectPerEvent)
{
    TraceSink sink;
    sink.record(1, TraceCat::Dfh, "dfh.transition",
                {{"line", 7}, {"from", "b01"}, {"to", "b10"},
                 {"frac", 0.5}, {"ok", true}});
    sink.record(2, TraceCat::Ecc, "ecc.install", {{"line", 9}});

    Json doc;
    std::string err;
    ASSERT_TRUE(Json::parse(sink.toJson().toString(0), doc, &err))
        << err;
    ASSERT_EQ(doc.size(), 2u);
    for (std::size_t k = 0; k < doc.size(); ++k) {
        const Json &ev = doc.at(k);
        EXPECT_TRUE(ev.contains("t"));
        EXPECT_TRUE(ev.contains("cat"));
        EXPECT_TRUE(ev.contains("name"));
        // One ring, one thread: every event sits on tid 0.
        EXPECT_EQ(ev.at("tid").asInt(), 0);
    }
    EXPECT_EQ(doc.at(std::size_t(1)).at("cat").asString(), "ecc");
}

TEST(TraceSink, ChromeTraceRoundTripsThroughStrictParser)
{
    TraceSink sink;
    sink.record(10, TraceCat::L2, "l2.read_hit", {{"line", 3}});
    sink.record(11, TraceCat::Error, "error.detect",
                {{"line", 3}, {"dfh", "b01"}});

    Json doc;
    std::string err;
    ASSERT_TRUE(Json::parse(sink.chromeTraceJson().toString(2), doc,
                            &err))
        << err;

    const Json &events = doc.at("traceEvents");
    ASSERT_EQ(events.size(), 2u);
    const Json &first = events.at(0);
    // Fields the trace_event spec requires for instant events.
    EXPECT_EQ(first.at("ph").asString(), "i");
    EXPECT_EQ(first.at("s").asString(), "t");
    EXPECT_EQ(first.at("ts").asInt(), 10);
    EXPECT_EQ(first.at("name").asString(), "l2.read_hit");
    EXPECT_EQ(first.at("cat").asString(), "l2");
    EXPECT_EQ(first.at("args").at("line").asInt(), 3);
    EXPECT_EQ(first.at("pid").asInt(), 0);
    EXPECT_EQ(first.at("tid").asInt(), 0);
    // Bookkeeping lands in otherData.
    EXPECT_EQ(doc.at("otherData").at("recorded").asInt(), 2);
}

TEST(TraceSink, ArgTypesSerializeFaithfully)
{
    TraceSink sink;
    sink.record(1, TraceCat::Sim, "types",
                {{"u", std::uint64_t{1} << 40}, {"i", -5},
                 {"f", 2.5}, {"b", false}, {"s", "txt"}});
    const Json doc = sink.toJson();
    const Json &args = doc.at(0).at("args");
    EXPECT_EQ(args.at("u").asInt(), std::int64_t{1} << 40);
    EXPECT_EQ(args.at("i").asInt(), -5);
    EXPECT_DOUBLE_EQ(args.at("f").asDouble(), 2.5);
    EXPECT_FALSE(args.at("b").asBool());
    EXPECT_EQ(args.at("s").asString(), "txt");
}

// ---- single owner --------------------------------------------------

TEST(TraceSinkDeath, RecordFromASecondThreadPanics)
{
    // The sink belongs to the thread that built it; another thread's
    // record() is a detected error, not a silent race on the ring.
    // record() is called directly, so this holds in every
    // KILLI_TRACE_CATEGORIES build.
    TraceSink sink;
    sink.record(1, TraceCat::L2, "owner", {});
    EXPECT_DEATH(
        {
            std::thread other([&sink] {
                sink.record(2, TraceCat::L2, "intruder", {});
            });
            other.join();
        },
        "does not own");
    EXPECT_EQ(sink.recorded(), 1u);
}

// ---- determinism ---------------------------------------------------

TEST(TraceDeterminism, IdenticalScenarioYieldsIdenticalTrace)
{
    // The property the sweep relies on at any --jobs: a point's
    // trace is a function of its inputs only, so re-running the same
    // seed gives a byte-identical file.
    if (!(kCompiledTraceMask & std::uint32_t(TraceCat::Dfh)))
        GTEST_SKIP() << "Dfh trace category compiled out: no events";
    const check::Scenario sc = check::Scenario::generate(1234);
    std::string first;
    for (int round = 0; round < 2; ++round) {
        TraceSink sink;
        check::runScenario(sc, 8, &sink);
        const std::string text = sink.chromeTraceJson().toString(2);
        if (round == 0) {
            first = text;
            EXPECT_GT(sink.retained(), 0u)
                << "scenario produced no events";
        } else {
            EXPECT_EQ(first, text);
        }
    }
}

// ---- StatTimeseries ------------------------------------------------

TEST(StatTimeseries, SamplesColumnsInRegistrationOrder)
{
    StatTimeseries ts(100);
    double x = 1.0;
    ts.addSource("x", [&x] { return x; });
    ts.addSource("x2", [&x] { return x * x; });

    ts.sample(100);
    x = 3.0;
    ts.sample(200);

    const Json doc = ts.toJson();
    ASSERT_EQ(doc.at("samples").size(), 2u);
    EXPECT_DOUBLE_EQ(doc.at("samples").at(1).at(1).asDouble(), 3.0);
    EXPECT_DOUBLE_EQ(doc.at("samples").at(1).at(2).asDouble(), 9.0);
    EXPECT_EQ(doc.at("interval").asInt(), 100);
    EXPECT_EQ(doc.at("columns").at(0).asString(), "tick");
    EXPECT_EQ(doc.at("columns").at(1).asString(), "x");
    EXPECT_EQ(doc.at("columns").at(2).asString(), "x2");
    EXPECT_EQ(doc.at("samples").at(1).at(0).asInt(), 200);
    EXPECT_DOUBLE_EQ(doc.at("samples").at(0).at(2).asDouble(), 1.0);
}

TEST(StatTimeseries, SameTickOverwritesInsteadOfDuplicating)
{
    StatTimeseries ts(10);
    double v = 1.0;
    ts.addSource("v", [&v] { return v; });
    ts.sample(50);
    v = 2.0;
    ts.sample(50); // the explicit final sample may coincide
    const Json samples = ts.toJson().at("samples");
    ASSERT_EQ(samples.size(), 1u);
    EXPECT_EQ(samples.at(0).at(0).asInt(), 50);
    EXPECT_DOUBLE_EQ(samples.at(0).at(1).asDouble(), 2.0);
}

TEST(StatTimeseries, NeverSampledSeriesHasColumnsButNoRows)
{
    StatTimeseries ts;
    ts.addSource("v", [] { return 1.0; });
    const Json doc = ts.toJson();
    ASSERT_EQ(doc.at("columns").size(), 2u);
    EXPECT_EQ(doc.at("columns").at(1).asString(), "v");
    EXPECT_EQ(doc.at("samples").size(), 0u);
}

TEST(StatTimeseriesDeath, AddSourceAfterSamplingPanics)
{
    StatTimeseries ts;
    ts.addSource("v", [] { return 1.0; });
    ts.sample(1);
    EXPECT_DEATH(ts.addSource("late", [] { return 0.0; }),
                 "sampling");
}

TEST(StatTimeseriesDeath, DuplicateColumnPanics)
{
    StatTimeseries ts;
    ts.addSource("v", [] { return 1.0; });
    EXPECT_DEATH(ts.addSource("v", [] { return 2.0; }), "v");
}

// ---- EventQueue periodic hook --------------------------------------

TEST(EventQueuePeriodic, FiresEveryIntervalWhileEventsRemain)
{
    EventQueue eq;
    ClosureEvents ev(eq);
    std::vector<Tick> fired;
    eq.setPeriodic(10, [&] { fired.push_back(eq.curTick()); });
    ev.schedule(35, [] {});
    EXPECT_TRUE(eq.run());
    // Fires at 10, 20, 30; stops with the last event at 35.
    EXPECT_EQ(fired, (std::vector<Tick>{10, 20, 30}));
}

TEST(EventQueuePeriodic, SampleAtTickSeesStateBeforeSameTickEvents)
{
    EventQueue eq;
    ClosureEvents ev(eq);
    int value = 0;
    std::vector<int> observed;
    eq.setPeriodic(10, [&] { observed.push_back(value); });
    // The event at tick 10 coincides with the periodic firing: the
    // snapshot must observe the world *before* the event runs.
    ev.schedule(10, [&value] { value = 7; });
    ev.schedule(15, [] {});
    EXPECT_TRUE(eq.run());
    EXPECT_EQ(observed, (std::vector<int>{0}));
}

TEST(EventQueuePeriodic, TracesScheduleAndPeriodicEvents)
{
    if (!(kCompiledTraceMask & std::uint32_t(TraceCat::Sim)))
        GTEST_SKIP() << "Sim trace category compiled out";
    EventQueue eq;
    ClosureEvents ev(eq);
    TraceSink sink;
    eq.setTrace(&sink);
    eq.setPeriodic(5, [] {});
    ev.schedule(7, [] {});
    EXPECT_TRUE(eq.run());

    bool sawSchedule = false, sawPeriodic = false;
    for (const TraceEvent &ev : sink.events()) {
        if (std::string_view(ev.name) == "sim.schedule")
            sawSchedule = true;
        if (std::string_view(ev.name) == "sim.periodic")
            sawPeriodic = true;
    }
    EXPECT_TRUE(sawSchedule);
    EXPECT_TRUE(sawPeriodic);
}

TEST(EventQueuePeriodic, IntervalZeroUninstalls)
{
    EventQueue eq;
    ClosureEvents ev(eq);
    int fired = 0;
    eq.setPeriodic(10, [&fired] { ++fired; });
    eq.setPeriodic(0, nullptr);
    ev.schedule(25, [] {});
    EXPECT_TRUE(eq.run());
    EXPECT_EQ(fired, 0);
}

// ---- drop accounting -----------------------------------------------

TEST(TraceSink, DroppedRecordsFeedTheProcessWideTotal)
{
    const std::uint64_t before = traceDroppedRecordsTotal();
    TraceSink sink(2);
    recordN(sink, 10);
    EXPECT_EQ(traceDroppedRecordsTotal(), before + 8u);
}

TEST(TraceSink, FirstDropWarnsOnceAndOnlyOnce)
{
    ScopedLogCapture capture;
    TraceSink sink(4);
    recordN(sink, 4);
    EXPECT_FALSE(capture.contains("ring buffer full"))
        << "no drop yet, no warning";
    recordN(sink, 10);
    EXPECT_TRUE(capture.contains("ring buffer full"));

    std::size_t warnings = 0;
    for (const std::string &line : capture.messages())
        if (line.find("ring buffer full") != std::string::npos)
            ++warnings;
    EXPECT_EQ(warnings, 1u) << "the warn() must be one-shot";

    // Further drops stay silent but keep counting.
    recordN(sink, 10);
    warnings = 0;
    for (const std::string &line : capture.messages())
        if (line.find("ring buffer full") != std::string::npos)
            ++warnings;
    EXPECT_EQ(warnings, 1u);
    // 24 recorded into a 4-slot ring.
    EXPECT_EQ(sink.dropped(), 20u);
}
