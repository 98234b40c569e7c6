/**
 * @file
 * Unit tests for the kcommon utility library: BitVec semantics and
 * invariants, RNG determinism and distribution sanity, stats
 * registry behaviour, JSON documents, and table rendering.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <limits>
#include <cstdlib>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/bitvec.hh"
#include "common/hash.hh"
#include "common/json.hh"
#include "common/log.hh"
#include "common/options.hh"
#include "common/rng.hh"
#include "common/stats.hh"
#include "common/table.hh"

using namespace killi;

TEST(BitVecTest, ConstructsZeroed)
{
    BitVec v(523);
    EXPECT_EQ(v.size(), 523u);
    EXPECT_TRUE(v.zero());
    EXPECT_EQ(v.popcount(), 0u);
    EXPECT_FALSE(v.parity());
}

TEST(BitVecTest, SetGetFlip)
{
    BitVec v(100);
    v.set(0);
    v.set(63);
    v.set(64);
    v.set(99);
    EXPECT_TRUE(v.get(0));
    EXPECT_TRUE(v.get(63));
    EXPECT_TRUE(v.get(64));
    EXPECT_TRUE(v.get(99));
    EXPECT_FALSE(v.get(1));
    EXPECT_EQ(v.popcount(), 4u);
    v.flip(0);
    EXPECT_FALSE(v.get(0));
    v.set(99, false);
    EXPECT_FALSE(v.get(99));
    EXPECT_EQ(v.popcount(), 2u);
}

TEST(BitVecTest, TailMaskingInvariant)
{
    // Writing a full word into the last partial word must not leak
    // bits beyond size(): popcount and parity depend on it.
    BitVec v(65);
    v.setWord(1, ~std::uint64_t{0});
    EXPECT_EQ(v.popcount(), 1u);
    EXPECT_TRUE(v.get(64));
}

TEST(BitVecTest, XorAndOr)
{
    BitVec a(70), b(70);
    a.set(3);
    a.set(68);
    b.set(3);
    b.set(10);
    const BitVec x = a ^ b;
    EXPECT_FALSE(x.get(3));
    EXPECT_TRUE(x.get(10));
    EXPECT_TRUE(x.get(68));
    const BitVec an = a & b;
    EXPECT_EQ(an.popcount(), 1u);
    EXPECT_TRUE(an.get(3));
    const BitVec o = a | b;
    EXPECT_EQ(o.popcount(), 3u);
}

TEST(BitVecTest, Parity)
{
    BitVec v(523);
    EXPECT_FALSE(v.parity());
    v.set(5);
    EXPECT_TRUE(v.parity());
    v.set(511);
    EXPECT_FALSE(v.parity());
    v.set(522);
    EXPECT_TRUE(v.parity());
}

TEST(BitVecTest, DotParityMatchesExplicitAnd)
{
    Rng rng(7);
    for (int iter = 0; iter < 50; ++iter) {
        BitVec a(523), m(523);
        a.randomize(rng);
        m.randomize(rng);
        EXPECT_EQ(a.dotParity(m), (a & m).parity());
    }
}

TEST(BitVecTest, HammingDistance)
{
    BitVec a(128), b(128);
    a.set(0);
    a.set(100);
    b.set(100);
    b.set(101);
    EXPECT_EQ(a.hammingDistance(b), 2u);
    EXPECT_EQ(a.hammingDistance(a), 0u);
}

TEST(BitVecTest, OnesPositions)
{
    BitVec v(130);
    v.set(0);
    v.set(64);
    v.set(129);
    const auto ones = v.onesPositions();
    ASSERT_EQ(ones.size(), 3u);
    EXPECT_EQ(ones[0], 0u);
    EXPECT_EQ(ones[1], 64u);
    EXPECT_EQ(ones[2], 129u);
}

TEST(BitVecTest, StringRoundTrip)
{
    Rng rng(11);
    BitVec v(75);
    v.randomize(rng);
    const BitVec back = BitVec::fromString(v.toString());
    EXPECT_EQ(back, v);
}

TEST(RngTest, Deterministic)
{
    Rng a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next64(), b.next64());
}

TEST(RngTest, SeedsDiffer)
{
    Rng a(1), b(2);
    EXPECT_NE(a.next64(), b.next64());
}

TEST(RngTest, UniformInRange)
{
    Rng rng(3);
    for (int i = 0; i < 1000; ++i) {
        const double u = rng.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
    }
}

TEST(RngTest, BelowIsBounded)
{
    Rng rng(5);
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 3000; ++i) {
        const std::uint64_t v = rng.below(7);
        EXPECT_LT(v, 7u);
        seen.insert(v);
    }
    EXPECT_EQ(seen.size(), 7u); // all residues reachable
}

TEST(RngTest, BernoulliFrequency)
{
    Rng rng(9);
    int hits = 0;
    const int trials = 20000;
    for (int i = 0; i < trials; ++i)
        hits += rng.bernoulli(0.3);
    EXPECT_NEAR(hits / double(trials), 0.3, 0.02);
}

TEST(RngTest, PoissonMean)
{
    Rng rng(13);
    double sum = 0;
    const int trials = 20000;
    for (int i = 0; i < trials; ++i)
        sum += rng.poisson(2.5);
    EXPECT_NEAR(sum / trials, 2.5, 0.1);
}

TEST(StatsTest, CountersAccumulate)
{
    StatGroup stats;
    Counter &hits = stats.counter("hits", "cache hits");
    ++hits;
    hits += 4;
    EXPECT_EQ(stats.counterValue("hits"), 5u);
    EXPECT_EQ(stats.counterValue("misses"), 0u);
}

TEST(StatsTest, SameNameSharesCounter)
{
    StatGroup stats;
    ++stats.counter("x");
    ++stats.counter("x");
    EXPECT_EQ(stats.counterValue("x"), 2u);
}

TEST(StatsTest, FormulaEvaluatesLazily)
{
    StatGroup stats;
    Counter &n = stats.counter("n");
    stats.formula("twice", [&] { return 2.0 * n.value(); });
    n += 3;
    EXPECT_DOUBLE_EQ(stats.formulaValue("twice"), 6.0);
}

TEST(StatsTest, DistributionTracksMinMaxMean)
{
    StatGroup stats;
    Distribution &d = stats.distribution("lat");
    d.sample(2);
    d.sample(10);
    d.sample(6);
    EXPECT_EQ(d.count(), 3u);
    EXPECT_DOUBLE_EQ(d.mean(), 6.0);
    EXPECT_DOUBLE_EQ(d.min(), 2.0);
    EXPECT_DOUBLE_EQ(d.max(), 10.0);
}

TEST(StatsTest, ResetClears)
{
    StatGroup stats;
    stats.counter("c") += 9;
    stats.distribution("d").sample(1.0);
    stats.resetAll();
    EXPECT_EQ(stats.counterValue("c"), 0u);
    EXPECT_EQ(stats.distribution("d").count(), 0u);
}

TEST(StatsTest, DumpContainsEntries)
{
    StatGroup stats;
    stats.counter("l2.hits", "hits") += 12;
    std::ostringstream os;
    stats.dump(os, "sim.");
    EXPECT_NE(os.str().find("sim.l2.hits"), std::string::npos);
    EXPECT_NE(os.str().find("12"), std::string::npos);
}

TEST(TableTest, RendersAligned)
{
    TextTable t;
    t.header({"name", "value"});
    t.row({"alpha", "1"});
    t.row({"b", "22.5"});
    std::ostringstream os;
    t.print(os);
    const std::string out = os.str();
    EXPECT_NE(out.find("| name"), std::string::npos);
    EXPECT_NE(out.find("alpha"), std::string::npos);
    EXPECT_NE(out.find("22.5"), std::string::npos);
}

TEST(TableTest, NumFormatting)
{
    EXPECT_EQ(TextTable::num(0.625, 3), "0.625");
    EXPECT_EQ(TextTable::num(1.0, 1), "1.0");
}

TEST(TableTest, MismatchedRowWidthIsFatal)
{
    TextTable t;
    t.header({"a", "b"});
    EXPECT_DEATH(t.row({"only-one"}), "");
}

TEST(BitVecTest, FromStringRejectsGarbage)
{
    EXPECT_DEATH(BitVec::fromString("01x0"), "");
}

TEST(RngTest, ForkedStreamsDiverge)
{
    Rng parent(5);
    Rng childA = parent.fork();
    Rng childB = parent.fork();
    EXPECT_NE(childA.next64(), childB.next64());
}

TEST(StatsTest, EmptyDistributionHasNoExtrema)
{
    Distribution d;
    EXPECT_TRUE(d.empty());
    EXPECT_EQ(d.count(), 0u);
    EXPECT_TRUE(std::isnan(d.min()));
    EXPECT_TRUE(std::isnan(d.max()));
    d.sample(-4.0);
    EXPECT_FALSE(d.empty());
    EXPECT_DOUBLE_EQ(d.min(), -4.0);
    EXPECT_DOUBLE_EQ(d.max(), -4.0);
    d.reset();
    EXPECT_TRUE(d.empty());
    EXPECT_TRUE(std::isnan(d.min()));
}

TEST(StatsTest, QuantileEdgeCases)
{
    // Empty (and bucketless) distributions have no quantiles.
    Distribution none;
    EXPECT_TRUE(std::isnan(none.quantile(0.5)));
    Distribution noBuckets;
    noBuckets.sample(3.0);
    EXPECT_TRUE(std::isnan(noBuckets.quantile(0.5)));

    // A single sample answers every p with (a bucket-resolution
    // estimate of) itself; p=0 and p=1 clamp to the true extrema
    // when they sit inside the bucket range.
    Distribution one;
    one.initBuckets(0.0, 10.0, 10);
    one.sample(4.5);
    EXPECT_DOUBLE_EQ(one.quantile(0.0), 4.5);
    EXPECT_DOUBLE_EQ(one.quantile(1.0), 4.5);
    const double mid = one.quantile(0.5);
    EXPECT_GE(mid, 4.0);
    EXPECT_LE(mid, 5.0);

    // p outside [0, 1] behaves as the clamped endpoint.
    EXPECT_DOUBLE_EQ(one.quantile(-3.0), one.quantile(0.0));
    EXPECT_DOUBLE_EQ(one.quantile(7.0), one.quantile(1.0));

    // Out-of-range extrema clamp to the configured bucket span:
    // "beyond the top bucket" reads as "at least bucketHigh()".
    Distribution wide;
    wide.initBuckets(0.0, 10.0, 10);
    wide.sample(-5.0);
    wide.sample(5.0);
    wide.sample(25.0);
    EXPECT_DOUBLE_EQ(wide.quantile(0.0), 0.0);   // max(min, lo)
    EXPECT_DOUBLE_EQ(wide.quantile(1.0), 10.0);  // min(max, hi)
    EXPECT_DOUBLE_EQ(wide.quantile(0.99), 10.0); // overflow mass

    // NaN samples must not corrupt the histogram: the negated
    // range comparison routes them to overflow, so quantiles keep
    // answering from the finite mass.
    Distribution withNan;
    withNan.initBuckets(0.0, 10.0, 10);
    withNan.sample(2.5);
    withNan.sample(std::numeric_limits<double>::quiet_NaN());
    EXPECT_EQ(withNan.count(), 2u);
    const double q = withNan.quantile(0.25);
    EXPECT_GE(q, 2.0);
    EXPECT_LE(q, 3.0);
    EXPECT_DOUBLE_EQ(withNan.quantile(0.99), 10.0);
}

TEST(StatsTest, NegativeSamplesKeepTrueExtrema)
{
    // Before the NaN fix min/max started at 0.0, so an all-negative
    // (or all-positive-above-zero) stream reported a bogus extremum.
    Distribution d;
    d.sample(-2.0);
    d.sample(-8.0);
    EXPECT_DOUBLE_EQ(d.min(), -8.0);
    EXPECT_DOUBLE_EQ(d.max(), -2.0);
    Distribution e;
    e.sample(5.0);
    e.sample(3.0);
    EXPECT_DOUBLE_EQ(e.min(), 3.0);
}

TEST(StatsTest, TextDumpMarksEmptyDistributions)
{
    StatGroup stats;
    stats.distribution("lat", "never sampled");
    std::ostringstream os;
    stats.dump(os);
    EXPECT_NE(os.str().find("no samples"), std::string::npos);
}

TEST(JsonTest, ScalarRoundTrip)
{
    Json doc = Json::object();
    doc.set("i", Json::number(std::int64_t{-42}));
    doc.set("u", Json::number(std::uint64_t{1} << 63));
    doc.set("d", Json::number(0.625));
    doc.set("s", Json::string("hi \"there\"\n"));
    doc.set("t", Json::boolean(true));
    doc.set("n", Json::null());

    Json back;
    std::string err;
    ASSERT_TRUE(Json::parse(doc.toString(), back, &err)) << err;
    EXPECT_EQ(back, doc);
    EXPECT_EQ(back.at("i").asInt(), -42);
    EXPECT_DOUBLE_EQ(back.at("d").asDouble(), 0.625);
    EXPECT_EQ(back.at("s").asString(), "hi \"there\"\n");
    EXPECT_TRUE(back.at("n").isNull());
}

TEST(JsonTest, NestedArraysAndObjects)
{
    Json arr = Json::array();
    for (int i = 0; i < 3; ++i) {
        Json entry = Json::object();
        entry.set("idx", Json::number(std::int64_t(i)));
        arr.push(std::move(entry));
    }
    Json doc = Json::object();
    doc.set("rows", std::move(arr));

    Json back;
    ASSERT_TRUE(Json::parse(doc.toString(), back, nullptr));
    ASSERT_EQ(back.at("rows").size(), 3u);
    EXPECT_EQ(back.at("rows").at(2).at("idx").asInt(), 2);
}

TEST(JsonTest, ObjectsPreserveInsertionOrder)
{
    Json doc = Json::object();
    doc.set("zebra", Json::number(std::int64_t{1}));
    doc.set("alpha", Json::number(std::int64_t{2}));
    ASSERT_EQ(doc.members().size(), 2u);
    EXPECT_EQ(doc.members()[0].first, "zebra");
    EXPECT_EQ(doc.members()[1].first, "alpha");
}

TEST(JsonTest, NonFiniteDoublesSerializeAsNull)
{
    Json doc = Json::object();
    doc.set("bad", Json::number(std::nan("")));
    EXPECT_NE(doc.toString().find("null"), std::string::npos);
    Json back;
    ASSERT_TRUE(Json::parse(doc.toString(), back, nullptr));
    EXPECT_TRUE(back.at("bad").isNull());
}

TEST(JsonTest, ParserRejectsMalformedInput)
{
    Json out;
    std::string err;
    EXPECT_FALSE(Json::parse("{\"a\": }", out, &err));
    EXPECT_FALSE(err.empty());
    EXPECT_FALSE(Json::parse("[1, 2", out, &err));
    EXPECT_FALSE(Json::parse("{\"a\": 1} trailing", out, &err));
    EXPECT_FALSE(Json::parse("", out, &err));
}

TEST(JsonTest, DoubleKindSurvivesRoundTripForWholeValues)
{
    // 2.0 must come back as a Double (not Int) so that results files
    // are stable under rewrite.
    Json doc = Json::number(2.0);
    Json back;
    ASSERT_TRUE(Json::parse(doc.toString(), back, nullptr));
    EXPECT_EQ(back.kind(), Json::Kind::Double);
    EXPECT_EQ(back, doc);
}

TEST(JsonTest, FileRoundTripCreatesParentDirs)
{
    const std::string dir = ::testing::TempDir() + "/killi_json_test";
    const std::string path = dir + "/nested/out.json";
    Json doc = Json::object();
    doc.set("answer", Json::number(std::int64_t{42}));
    writeJsonFile(path, doc);
    EXPECT_EQ(readJsonFile(path), doc);
    std::remove(path.c_str());
}

TEST(TableTest, ToJsonKeysRowsByHeader)
{
    TextTable t;
    t.header({"name", "value"});
    t.row({"alpha", "1"});
    t.row({"beta", "2"});
    const Json doc = t.toJson();
    ASSERT_EQ(doc.size(), 2u);
    EXPECT_EQ(doc.at(0).at("name").asString(), "alpha");
    EXPECT_EQ(doc.at(1).at("value").asString(), "2");
}

// ---- Distribution moments and histograms ---------------------------

TEST(StatsTest, DistributionVarianceAndStddev)
{
    Distribution d;
    d.sample(2);
    d.sample(4);
    d.sample(4);
    d.sample(4);
    d.sample(5);
    d.sample(5);
    d.sample(7);
    d.sample(9);
    // Classic textbook set: population variance 4, stddev 2.
    EXPECT_DOUBLE_EQ(d.mean(), 5.0);
    EXPECT_DOUBLE_EQ(d.variance(), 4.0);
    EXPECT_DOUBLE_EQ(d.stddev(), 2.0);
}

TEST(StatsTest, EmptyDistributionMomentsAreNaN)
{
    const Distribution d;
    EXPECT_EQ(d.count(), 0u);
    EXPECT_TRUE(std::isnan(d.mean()));
    EXPECT_TRUE(std::isnan(d.variance()));
    EXPECT_TRUE(std::isnan(d.stddev()));
}

TEST(StatsTest, SingleSampleHasZeroVariance)
{
    Distribution d;
    d.sample(42.0);
    EXPECT_DOUBLE_EQ(d.mean(), 42.0);
    EXPECT_DOUBLE_EQ(d.variance(), 0.0);
    EXPECT_DOUBLE_EQ(d.stddev(), 0.0);
}

TEST(StatsTest, HistogramBucketsAndOutOfRangeCounts)
{
    Distribution d;
    d.initBuckets(0.0, 8.0, 4); // [0,2) [2,4) [4,6) [6,8)
    ASSERT_TRUE(d.hasBuckets());
    ASSERT_EQ(d.numBuckets(), 4u);
    d.sample(-1.0); // underflow
    d.sample(0.0);  // bucket 0 (half-open low edge included)
    d.sample(1.99); // bucket 0
    d.sample(2.0);  // bucket 1
    d.sample(7.99); // bucket 3
    d.sample(8.0);  // overflow (high edge excluded)
    d.sample(50.0); // overflow
    EXPECT_EQ(d.bucketCount(0), 2u);
    EXPECT_EQ(d.bucketCount(1), 1u);
    EXPECT_EQ(d.bucketCount(2), 0u);
    EXPECT_EQ(d.bucketCount(3), 1u);
    EXPECT_EQ(d.underflow(), 1u);
    EXPECT_EQ(d.overflow(), 2u);
    // Moments still accumulate over every sample.
    EXPECT_EQ(d.count(), 7u);
}

TEST(StatsTest, HistogramHandlesExtremeAndNanSamples)
{
    // Values whose bucket offset exceeds size_t (and NaN) must land
    // in overflow; the naive double->size_t cast would be UB.
    Distribution d;
    d.initBuckets(0.0, 8.0, 4);
    d.sample(1e300);
    d.sample(std::numeric_limits<double>::infinity());
    d.sample(std::numeric_limits<double>::quiet_NaN());
    EXPECT_EQ(d.overflow(), 3u);
    EXPECT_EQ(d.underflow(), 0u);
    for (std::size_t k = 0; k < d.numBuckets(); ++k)
        EXPECT_EQ(d.bucketCount(k), 0u);
}

TEST(StatsTest, HistogramSurvivesResetAndSerializes)
{
    StatGroup stats;
    Distribution &d = stats.distribution("lat", "hit latency");
    d.initBuckets(0.0, 10.0, 5);
    d.sample(3.0);
    d.sample(-2.0);
    stats.resetAll();
    EXPECT_EQ(d.count(), 0u);
    ASSERT_TRUE(d.hasBuckets()); // layout survives, counts zeroed
    EXPECT_EQ(d.bucketCount(1), 0u);
    EXPECT_EQ(d.underflow(), 0u);

    d.sample(5.0);
    std::ostringstream os;
    stats.dump(os);
    EXPECT_NE(os.str().find("lat.hist"), std::string::npos);
    EXPECT_NE(os.str().find("stddev"), std::string::npos);

    const Json doc = stats.toJson();
    const Json &buckets =
        doc.at("distributions").at("lat").at("buckets");
    EXPECT_DOUBLE_EQ(buckets.at("lo").asDouble(), 0.0);
    EXPECT_DOUBLE_EQ(buckets.at("hi").asDouble(), 10.0);
    EXPECT_EQ(buckets.at("counts").at(2).asInt(), 1);
}

TEST(StatsDeathTest, InitBucketsAfterSamplesPanics)
{
    Distribution d;
    d.sample(1.0);
    EXPECT_DEATH(d.initBuckets(0.0, 1.0, 2), "initBuckets");
}

TEST(StatsDeathTest, InitBucketsRejectsDegenerateLayouts)
{
    Distribution d;
    EXPECT_DEATH(d.initBuckets(0.0, 1.0, 0), "zero buckets");
    Distribution d2;
    EXPECT_DEATH(d2.initBuckets(5.0, 5.0, 4), "empty range");
}

// ---- StatGroup name-collision detection ----------------------------

TEST(StatsDeathTest, CrossKindRegistrationPanics)
{
    StatGroup stats;
    stats.counter("x", "a counter");
    EXPECT_DEATH(stats.distribution("x"), "already registered");
    StatGroup stats2;
    stats2.distribution("y");
    EXPECT_DEATH(stats2.formula("y", [] { return 0.0; }),
                 "already registered");
}

TEST(StatsDeathTest, ConflictingDescriptionPanics)
{
    StatGroup stats;
    stats.counter("hits", "cache hits");
    // Same kind, different non-empty description: a second component
    // silently sharing the stat would corrupt both reports.
    EXPECT_DEATH(stats.counter("hits", "something else"),
                 "different");
}

TEST(StatsTest, RefetchWithEmptyDescriptionIsAllowed)
{
    StatGroup stats;
    stats.counter("hits", "cache hits") += 2;
    ++stats.counter("hits"); // plain fetch, no description claim
    EXPECT_EQ(stats.counterValue("hits"), 3u);
}

// ---- key=value configuration through Options ---------------------

namespace
{

void
parseConfigArgs(Options &opts, std::vector<std::string> args)
{
    std::vector<char *> argv;
    static char name[] = "common_test";
    argv.push_back(name);
    for (auto &arg : args)
        argv.push_back(arg.data());
    opts.parse(static_cast<int>(argv.size()), argv.data());
}

} // anonymous namespace

TEST(ConfigTest, ParsesKeyValues)
{
    Options opts("t", "test");
    const auto &size = opts.add<std::uint64_t>("l2.size", 0, "s");
    const auto &ratio = opts.add<std::int64_t>("ratio", 0, "r");
    const auto &verbose = opts.add<bool>("verbose", false, "v");
    const auto &scale = opts.add<double>("scale", 0.0, "x");
    const auto &absent = opts.add<std::int64_t>("absent", 17, "a");
    parseConfigArgs(opts, {"l2.size=2097152", "ratio=256",
                           "verbose=true", "scale=0.625"});
    EXPECT_EQ(size.value(), 2097152u);
    EXPECT_EQ(ratio.value(), 256);
    EXPECT_TRUE(verbose.value());
    EXPECT_DOUBLE_EQ(scale.value(), 0.625);
    EXPECT_EQ(absent.value(), 17);
    EXPECT_TRUE(opts.has("ratio"));
    EXPECT_FALSE(opts.has("absent"));
}

TEST(ConfigTest, MalformedArgumentIsFatal)
{
    EXPECT_DEATH(
        {
            Options opts("t", "test");
            parseConfigArgs(opts, {"no-equals-sign"});
        },
        "key=value");
}

TEST(ConfigTest, EnvironmentFallback)
{
    ::setenv("KILLI_TEST_KNOB", "17", 1);
    Options opts("t", "test");
    const auto &knob = opts.add<std::int64_t>("test.knob", 0, "k");
    parseConfigArgs(opts, {});
    EXPECT_EQ(knob.value(), 17);
    EXPECT_TRUE(opts.has("test.knob"));
    ::unsetenv("KILLI_TEST_KNOB");
}

TEST(ConfigTest, ExplicitSetWinsOverDefault)
{
    Options opts("t", "test");
    const auto &ratio = opts.add<std::int64_t>("ratio", 256, "r");
    parseConfigArgs(opts, {"ratio=64"});
    EXPECT_EQ(ratio.value(), 64);
    EXPECT_EQ(opts.get<std::int64_t>("ratio"), 64);
}

TEST(ConfigTest, MalformedDoubleIsFatal)
{
    EXPECT_DEATH(
        {
            Options opts("t", "test");
            opts.add<double>("scale", 1.0, "x");
            parseConfigArgs(opts, {"scale=half"});
        },
        "scale.*expects a");
}

// ---- logging: pluggable sink, capture, cycle timestamps ------------

TEST(LogTest, CaptureSeesWarnAndInform)
{
    ScopedLogCapture capture;
    warn("deprecated knob %s", "x");
    inform("loaded %d entries", 7);
    EXPECT_TRUE(capture.contains("deprecated knob x"));
    EXPECT_TRUE(capture.contains("loaded 7 entries"));
    ASSERT_EQ(capture.messages().size(), 2u);
    EXPECT_EQ(capture.messages()[0].rfind("warn:", 0), 0u)
        << capture.messages()[0];
    capture.clear();
    EXPECT_TRUE(capture.messages().empty());
}

TEST(LogTest, CaptureRestoresPreviousSinkOnDestruction)
{
    ScopedLogCapture outer;
    {
        ScopedLogCapture inner;
        warn("inner message");
        EXPECT_TRUE(inner.contains("inner message"));
        EXPECT_FALSE(outer.contains("inner message"));
    }
    warn("outer message");
    EXPECT_TRUE(outer.contains("outer message"));
}

TEST(LogTest, ClockPrefixesMessagesWithTick)
{
    ScopedLogCapture capture;
    {
        Tick t = 1234;
        ScopedLogClock clock([&t] { return t; });
        warn("mid-run condition");
    }
    warn("post-run condition");
    ASSERT_EQ(capture.messages().size(), 2u);
    EXPECT_NE(capture.messages()[0].find("@1234"), std::string::npos)
        << capture.messages()[0];
    EXPECT_EQ(capture.messages()[1].find("@"), std::string::npos)
        << capture.messages()[1];
}

TEST(LogTest, ClockIsPerThread)
{
    // Regression test: concurrent simulations (runner --jobs=N) each
    // install a ScopedLogClock on their own worker thread. The old
    // process-global clock made overlapping scopes restore/delete
    // each other's clocks (use-after-free); now each thread stamps
    // with its own clock and other threads are unaffected.
    ScopedLogCapture capture;
    std::thread a([] {
        ScopedLogClock clock([] { return Tick(111); });
        for (int i = 0; i < 200; ++i)
            warn("from thread a");
    });
    std::thread b([] {
        ScopedLogClock clock([] { return Tick(222); });
        for (int i = 0; i < 200; ++i)
            warn("from thread b");
    });
    a.join();
    b.join();
    // The main thread never installed a clock, so it is unstamped.
    warn("from main");

    const std::vector<std::string> lines = capture.messages();
    ASSERT_EQ(lines.size(), 401u);
    for (const std::string &line : lines) {
        if (line.find("thread a") != std::string::npos)
            EXPECT_NE(line.find("@111"), std::string::npos) << line;
        else if (line.find("thread b") != std::string::npos)
            EXPECT_NE(line.find("@222"), std::string::npos) << line;
        else
            EXPECT_EQ(line.find('@'), std::string::npos) << line;
    }
}

TEST(LogTest, QuietLevelSuppressesWarnings)
{
    ScopedLogCapture capture;
    const LogLevel prev = logLevel();
    setLogLevel(LogLevel::Quiet);
    warn("should vanish");
    inform("also vanishes");
    setLogLevel(prev);
    EXPECT_TRUE(capture.messages().empty());
}

TEST(LogTest, SetLogLevelIsThreadSafe)
{
    // The old implementation raced on a plain global; this hammers
    // the accessors from two threads so TSan (CI) can prove the
    // atomic rewrite. Values are restored afterwards.
    const LogLevel prev = logLevel();
    std::thread a([] {
        for (int i = 0; i < 1000; ++i)
            setLogLevel(i % 2 ? LogLevel::Quiet : LogLevel::Normal);
    });
    std::thread b([] {
        for (int i = 0; i < 1000; ++i)
            (void)logLevel();
    });
    a.join();
    b.join();
    setLogLevel(prev);
    SUCCEED();
}

// ---------------------------------------------------------------
// SHA-256 (common/hash.hh) — FIPS 180-4 vectors
// ---------------------------------------------------------------

TEST(HashTest, Sha256KnownVectors)
{
    EXPECT_EQ(sha256Hex(""),
              "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934c"
              "a495991b7852b855");
    EXPECT_EQ(sha256Hex("abc"),
              "ba7816bf8f01cfea414140de5dae2223b00361a396177a9c"
              "b410ff61f20015ad");
    EXPECT_EQ(
        sha256Hex("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmno"
                  "mnopnopq"),
        "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd4"
        "19db06c1");
}

TEST(HashTest, Sha256MultiBlockAndDeterminism)
{
    // 'a' x 1000 crosses many 64-byte blocks and exercises padding.
    const std::string thousand(1000, 'a');
    const std::string h = sha256Hex(thousand);
    EXPECT_EQ(h.size(), 64u);
    EXPECT_EQ(h, sha256Hex(thousand));
    EXPECT_NE(h, sha256Hex(std::string(999, 'a')));
}

// ---------------------------------------------------------------
// tryReadJsonFile — the daemon's non-fatal config/request reader
// ---------------------------------------------------------------

TEST(JsonFileTest, TryReadMissingFileFailsSoftly)
{
    Json out = Json::string("untouched");
    std::string err;
    EXPECT_FALSE(
        tryReadJsonFile("definitely/not/a/file.json", out, &err));
    EXPECT_FALSE(err.empty());
    EXPECT_EQ(out.asString(), "untouched"); // out left alone
}

TEST(JsonFileTest, TryReadMalformedFileFailsSoftly)
{
    const std::string path = "common_test_malformed.json";
    {
        std::FILE *f = std::fopen(path.c_str(), "w");
        ASSERT_NE(f, nullptr);
        std::fputs("{\"broken\": ", f);
        std::fclose(f);
    }
    Json out;
    std::string err;
    EXPECT_FALSE(tryReadJsonFile(path, out, &err));
    EXPECT_FALSE(err.empty());
    std::remove(path.c_str());
}

TEST(JsonFileTest, TryReadRoundTripsAGoodFile)
{
    const std::string path = "common_test_good.json";
    Json doc = Json::object();
    doc.set("answer", Json::number(std::int64_t(42)));
    writeJsonFile(path, doc);
    Json out;
    ASSERT_TRUE(tryReadJsonFile(path, out));
    EXPECT_EQ(out.at("answer").asInt(), 42);
    std::remove(path.c_str());
}

// ---------------------------------------------------------------
// Distribution::quantile — the daemon's latency percentiles
// ---------------------------------------------------------------

TEST(StatsTest, QuantileIsNanWithoutSamplesOrBuckets)
{
    Distribution bucketless;
    bucketless.sample(1.0);
    EXPECT_TRUE(std::isnan(bucketless.quantile(0.5)));

    Distribution empty;
    empty.initBuckets(0.0, 10.0, 10);
    EXPECT_TRUE(std::isnan(empty.quantile(0.5)));
}

TEST(StatsTest, QuantileInterpolatesUniformFill)
{
    Distribution d;
    d.initBuckets(0.0, 100.0, 100);
    for (int i = 0; i < 100; ++i)
        d.sample(double(i) + 0.5); // one sample per bucket
    const double p50 = d.quantile(0.5);
    EXPECT_NEAR(p50, 50.0, 1.5);
    const double p99 = d.quantile(0.99);
    EXPECT_NEAR(p99, 99.0, 1.5);
    EXPECT_LE(d.quantile(0.0), d.quantile(1.0));
}

TEST(StatsTest, QuantileClampsToConfiguredRange)
{
    Distribution d;
    d.initBuckets(0.0, 10.0, 10);
    d.sample(-5.0);  // underflow: treated as sitting at bucketLow
    d.sample(500.0); // overflow: treated as sitting at bucketHigh
    EXPECT_GE(d.quantile(0.01), 0.0);
    EXPECT_LE(d.quantile(0.99), 10.0);
}
