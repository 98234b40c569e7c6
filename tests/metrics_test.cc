/**
 * @file
 * Tests for the kmetrics plane: registry semantics (idempotent
 * re-registration, kind-conflict panics, callback instruments,
 * concurrent updates), histogram bucket/quantile edge cases (NaN,
 * huge, zero/negative samples), Prometheus text exposition
 * (escaping, histogram series consistency, byte determinism), and
 * the ktop snapshot shape, pinned against a golden file.
 */

#include <cmath>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <sstream>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "metrics/dashboard.hh"
#include "metrics/metrics.hh"

using namespace killi;
using namespace killi::metrics;

namespace
{

/** The quantile a log histogram can be off by is one bucket, i.e. a
 *  factor of `growth`; assert within that. */
void
expectWithinBucket(double got, double want, double growth)
{
    EXPECT_GE(got, want / growth);
    EXPECT_LE(got, want * growth);
}

} // namespace

// ---- counters and gauges -------------------------------------------

TEST(MetricsRegistry, CounterAndGaugeBasics)
{
    MetricsRegistry reg;
    Counter &c = reg.counter("killi_widgets_total", "widgets");
    c.inc();
    c.inc(41);
    EXPECT_EQ(c.value(), 42u);

    // A gauge mirrors a value some other component owns.
    double depth = 3.5;
    reg.gaugeFn("killi_depth", "depth", {}, [&depth] { return depth; });
    depth -= 1.0;
    const std::string text = reg.prometheusText();
    EXPECT_NE(text.find("# TYPE killi_depth gauge\nkilli_depth 2.5\n"),
              std::string::npos)
        << text;
}

TEST(MetricsRegistry, ReRegistrationReturnsTheSameInstrument)
{
    MetricsRegistry reg;
    Counter &a =
        reg.counter("killi_x_total", "x", {{"kind", "a"}});
    Counter &b =
        reg.counter("killi_x_total", "x", {{"kind", "a"}});
    EXPECT_EQ(&a, &b);
    Counter &other =
        reg.counter("killi_x_total", "x", {{"kind", "b"}});
    EXPECT_NE(&a, &other);

    // Label order is canonicalized: the same set in any order is the
    // same instrument.
    Counter &c1 = reg.counter("killi_y_total", "y",
                              {{"a", "1"}, {"b", "2"}});
    Counter &c2 = reg.counter("killi_y_total", "y",
                              {{"b", "2"}, {"a", "1"}});
    EXPECT_EQ(&c1, &c2);
}

TEST(MetricsRegistryDeath, KindConflictPanics)
{
    MetricsRegistry reg;
    reg.counter("killi_conflict", "as counter");
    EXPECT_DEATH(reg.gaugeFn("killi_conflict", "as gauge", {},
                             [] { return 0.0; }),
                 "killi_conflict");
}

TEST(MetricsRegistry, CallbackInstrumentsArePulledAtExposition)
{
    MetricsRegistry reg;
    std::uint64_t backing = 7;
    reg.counterFn("killi_cb_total", "callback counter", {},
                  [&backing] { return backing; });
    double g = 1.25;
    reg.gaugeFn("killi_cb_gauge", "callback gauge", {},
                [&g] { return g; });

    std::string text = reg.prometheusText();
    EXPECT_NE(text.find("killi_cb_total 7"), std::string::npos)
        << text;
    EXPECT_NE(text.find("killi_cb_gauge 1.25"), std::string::npos);

    backing = 9;
    g = 2.5;
    text = reg.prometheusText();
    EXPECT_NE(text.find("killi_cb_total 9"), std::string::npos);
    EXPECT_NE(text.find("killi_cb_gauge 2.5"), std::string::npos);
}

TEST(MetricsRegistry, ConcurrentUpdatesAreExact)
{
    MetricsRegistry reg;
    Counter &c = reg.counter("killi_contended_total", "contended");
    Histogram &h = reg.histogram("killi_contended_seconds", "h");
    constexpr int kThreads = 8;
    constexpr int kPerThread = 20000;
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            for (int i = 0; i < kPerThread; ++i) {
                c.inc();
                h.observe(1e-4 * (t + 1));
            }
        });
    }
    for (auto &th : threads)
        th.join();
    EXPECT_EQ(c.value(), std::uint64_t(kThreads * kPerThread));
    EXPECT_EQ(h.count(), std::uint64_t(kThreads * kPerThread));
    EXPECT_DOUBLE_EQ(h.max(), 8e-4);
}

// ---- histogram edge cases ------------------------------------------

TEST(Histogram, BucketRoutingAndCumulative)
{
    // Bounds 1, 2, 4 (+Inf implicit).
    Histogram h(HistogramSpec{1.0, 2.0, 3});
    ASSERT_EQ(h.bounds().size(), 3u);
    EXPECT_DOUBLE_EQ(h.bounds()[2], 4.0);

    h.observe(0.5);   // bucket 0
    h.observe(-3.0);  // <= 0 lands in bucket 0
    h.observe(1.0);   // bucket 0 (bounds are inclusive)
    h.observe(1.5);   // bucket 1
    h.observe(4.0);   // bucket 2
    h.observe(100.0); // +Inf overflow

    EXPECT_EQ(h.count(), 6u);
    EXPECT_EQ(h.cumulative(0), 3u);
    EXPECT_EQ(h.cumulative(1), 4u);
    EXPECT_EQ(h.cumulative(2), 5u);
    EXPECT_EQ(h.cumulative(3), 6u); // +Inf == count()
    EXPECT_DOUBLE_EQ(h.max(), 100.0);
    EXPECT_DOUBLE_EQ(h.sum(), 0.5 - 3.0 + 1.0 + 1.5 + 4.0 + 100.0);
}

TEST(Histogram, QuantilesInterpolateAndClampToMax)
{
    Histogram h(HistogramSpec{1e-3, 2.0, 20});
    for (int i = 0; i < 100; ++i)
        h.observe(0.010); // all in one bucket
    expectWithinBucket(h.quantile(0.5), 0.010, 2.0);
    // The top of the estimate is clamped to the exact observed max.
    EXPECT_DOUBLE_EQ(h.quantile(1.0), 0.010);

    h.observe(5.0);
    EXPECT_DOUBLE_EQ(h.quantile(1.0), 5.0);
    expectWithinBucket(h.quantile(0.5), 0.010, 2.0);
}

TEST(Histogram, EmptyIsNaN)
{
    Histogram h;
    EXPECT_EQ(h.count(), 0u);
    EXPECT_TRUE(std::isnan(h.mean()));
    EXPECT_TRUE(std::isnan(h.max()));
    EXPECT_TRUE(std::isnan(h.quantile(0.5)));
}

TEST(Histogram, NaNSamplesAreCountedButExcludedFromSumAndMax)
{
    Histogram h(HistogramSpec{1.0, 2.0, 4});
    h.observe(1.0);
    h.observe(std::numeric_limits<double>::quiet_NaN());
    EXPECT_EQ(h.count(), 2u);
    EXPECT_DOUBLE_EQ(h.sum(), 1.0);
    EXPECT_DOUBLE_EQ(h.max(), 1.0);
    // The NaN is routed to the overflow bucket, so quantiles stay
    // finite (clamped to the observed max).
    EXPECT_DOUBLE_EQ(h.quantile(1.0), 1.0);
    EXPECT_EQ(h.cumulative(h.bounds().size()), 2u);
}

TEST(Histogram, HugeSamplesOverflowToInfBucket)
{
    Histogram h(HistogramSpec{1e-4, 2.0, 23});
    h.observe(1e300);
    h.observe(std::numeric_limits<double>::infinity());
    EXPECT_EQ(h.count(), 2u);
    EXPECT_EQ(h.cumulative(h.bounds().size() - 1), 0u);
    EXPECT_EQ(h.cumulative(h.bounds().size()), 2u);
    EXPECT_TRUE(std::isinf(h.max()));
    EXPECT_TRUE(std::isinf(h.quantile(0.99)));
}

// ---- exposition ----------------------------------------------------

TEST(Exposition, PrometheusTextEscapesHelpAndLabelValues)
{
    MetricsRegistry reg;
    reg.counter("killi_esc_total", "line1\nline2 back\\slash",
                {{"path", "a\"b\\c\nd"}})
        .inc();
    const std::string text = reg.prometheusText();
    EXPECT_NE(
        text.find(
            "# HELP killi_esc_total line1\\nline2 back\\\\slash"),
        std::string::npos)
        << text;
    EXPECT_NE(
        text.find("killi_esc_total{path=\"a\\\"b\\\\c\\nd\"} 1"),
        std::string::npos)
        << text;
}

TEST(Exposition, HistogramSeriesAreConsistentAndDeterministic)
{
    MetricsRegistry reg;
    Histogram &h = reg.histogram("killi_lat_seconds", "latency", {},
                                 HistogramSpec{1e-3, 10.0, 4});
    h.observe(0.5);
    h.observe(2.0);
    h.observe(1e9); // overflow

    const std::string text = reg.prometheusText();
    EXPECT_NE(
        text.find("killi_lat_seconds_bucket{le=\"+Inf\"} 3"),
        std::string::npos)
        << text;
    EXPECT_NE(text.find("killi_lat_seconds_count 3"),
              std::string::npos);
    // TYPE header present, and exposition is byte-deterministic.
    EXPECT_NE(text.find("# TYPE killi_lat_seconds histogram"),
              std::string::npos);
    EXPECT_EQ(text, reg.prometheusText());
}

TEST(Exposition, JsonAndTextAgreeOnCounterValues)
{
    MetricsRegistry reg;
    reg.counter("killi_agree_total", "agree").inc(12345);
    const Json doc = reg.toJson();
    const Json &fams = doc.at("families");
    ASSERT_EQ(fams.size(), 1u);
    EXPECT_EQ(fams.at(std::size_t{0}).at("name").asString(),
              "killi_agree_total");
    EXPECT_EQ(fams.at(std::size_t{0})
                  .at("metrics")
                  .at(std::size_t{0})
                  .at("value")
                  .asDouble(),
              12345.0);
    EXPECT_NE(reg.prometheusText().find("killi_agree_total 12345"),
              std::string::npos);
}

TEST(Exposition, FormatValueRoundTrips)
{
    EXPECT_EQ(formatValue(42.0), "42");
    EXPECT_EQ(formatValue(0.25), "0.25");
    EXPECT_EQ(formatValue(
                  std::numeric_limits<double>::infinity()),
              "+Inf");
    const double third = 1.0 / 3.0;
    EXPECT_DOUBLE_EQ(std::stod(formatValue(third)), third);
}

// ---- ktop ----------------------------------------------------------

namespace
{

/** A deterministic kserved-shaped registry for snapshot tests. */
void
populateServedFamilies(MetricsRegistry &reg)
{
    const auto gauge = [&reg](const char *name, const char *help,
                              double value) {
        reg.gaugeFn(name, help, {}, [value] { return value; });
    };
    gauge("kserved_uptime_seconds", "uptime", 123.0);
    reg.counter("kserved_jobs_total", "jobs",
                {{"outcome", "done"}})
        .inc(5);
    reg.counter("kserved_jobs_total", "jobs",
                {{"outcome", "failed"}})
        .inc(1);
    reg.counter("kserved_jobs_total", "jobs",
                {{"outcome", "cancelled"}});
    reg.counter("kserved_jobs_total", "jobs",
                {{"outcome", "rejected"}})
        .inc(2);
    reg.counter("kserved_cache_hits_total", "hits").inc(3);
    reg.counter("kserved_cache_misses_total", "misses").inc(6);
    reg.counter("kserved_cache_insertions_total", "ins").inc(6);
    reg.counter("kserved_cache_evictions_total", "ev").inc(1);
    gauge("kserved_cache_bytes", "bytes", 4096);
    gauge("kserved_queue_depth", "depth", 2);
    gauge("kserved_jobs_running", "running", 1);
    gauge("kserved_queue_peak_depth", "peak", 4);
    reg.counter("kserved_admissions_total", "adm").inc(8);
    reg.counter("kserved_rejections_total", "rej").inc(2);
    reg.counter("kserved_cancellations_total", "can");
    reg.counter("kserved_connections_total", "conns").inc(9);
    gauge("kserved_connections_active", "active", 1);
    reg.counter("kserved_frames_received_total", "in").inc(20);
    reg.counter("kserved_frames_sent_total", "out").inc(30);
    reg.counter("kserved_protocol_errors_total", "errs");
    reg.counter("kserved_outbox_bytes_total", "bytes").inc(10000);
    reg.counter("ktrace_dropped_records_total", "drops").inc(11);
    Histogram &lat =
        reg.histogram("kserved_job_seconds", "latency");
    lat.observe(0.25);
    lat.observe(0.25);
    lat.observe(1.0);
    for (const char *stage : {"decode", "queue", "setup", "run",
                              "serialize", "reply"}) {
        reg.histogram("kserved_job_stage_seconds", "stages",
                      {{"stage", stage}})
            .observe(0.125);
    }
}

} // namespace

TEST(Ktop, SnapshotMatchesGolden)
{
    MetricsRegistry reg;
    populateServedFamilies(reg);
    const Json snapshot = ktopSnapshot(reg.toJson());
    const std::string got = snapshot.toString(2) + "\n";

    const std::string path =
        std::string(KMETRICS_GOLDEN_DIR) + "/ktop_snapshot.json";
    if (std::getenv("KMETRICS_REGEN_GOLDEN")) {
        std::ofstream out(path);
        out << got;
        GTEST_SKIP() << "regenerated " << path;
    }
    std::ifstream in(path);
    ASSERT_TRUE(in.good()) << "missing golden file " << path;
    std::ostringstream want;
    want << in.rdbuf();
    EXPECT_EQ(got, want.str())
        << "ktop --once --json shape drifted; if intentional, "
           "refresh the golden:\n"
        << got;
}

TEST(Ktop, SnapshotOfEmptyRegistryIsAllZeros)
{
    MetricsRegistry reg;
    const Json snap = ktopSnapshot(reg.toJson());
    EXPECT_EQ(snap.at("jobs").at("total").asDouble(), 0.0);
    EXPECT_EQ(snap.at("cache").at("hit_rate").asDouble(), 0.0);
    EXPECT_EQ(snap.at("latency").at("count").asInt(), 0);
    EXPECT_TRUE(snap.at("latency").at("p50_s").isNull());
    EXPECT_EQ(
        snap.at("trace").at("dropped_records").asDouble(), 0.0);
}

TEST(Ktop, SparklineScalesToMax)
{
    EXPECT_EQ(sparkline({}), "");
    const std::string s = sparkline({0.0, 4.0, 8.0});
    EXPECT_EQ(s, " ▄█");
    // NaN renders as a blank column.
    const std::string withNan =
        sparkline({std::numeric_limits<double>::quiet_NaN(), 1.0});
    EXPECT_EQ(withNan, " █");
}

TEST(Ktop, RenderProducesADashboard)
{
    MetricsRegistry reg;
    populateServedFamilies(reg);
    KtopModel model;
    const std::string frame =
        model.render(ktopSnapshot(reg.toJson()), 0.0);
    EXPECT_NE(frame.find("ktop — kserved up 123s"),
              std::string::npos)
        << frame;
    EXPECT_NE(frame.find("done 5"), std::string::npos);
    EXPECT_NE(frame.find("! ktrace dropped 11 records"),
              std::string::npos);

    // Second tick with 2 more done jobs: the rate line moves.
    reg.counter("kserved_jobs_total", "jobs",
                {{"outcome", "done"}})
        .inc(2);
    const std::string frame2 =
        model.render(ktopSnapshot(reg.toJson()), 1.0);
    EXPECT_NE(frame2.find("jobs 2.0/s"), std::string::npos)
        << frame2;
}

TEST(Ktop, FirstSampleAndZeroDtRatesAreZero)
{
    MetricsRegistry reg;
    populateServedFamilies(reg);
    KtopModel model;
    // First sample: no prior snapshot to delta against, so the jobs
    // done since boot must not be reported as a rate spike.
    const std::string first =
        model.render(ktopSnapshot(reg.toJson()), 5.0);
    EXPECT_NE(first.find("jobs 0.0/s"), std::string::npos) << first;
    // dt <= 0 refresh (an immediate redraw): still no rate, even
    // with a prior snapshot and counters that moved.
    reg.counter("kserved_jobs_total", "jobs",
                {{"outcome", "done"}})
        .inc(3);
    const std::string redraw =
        model.render(ktopSnapshot(reg.toJson()), 0.0);
    EXPECT_NE(redraw.find("jobs 0.0/s"), std::string::npos)
        << redraw;
    // Only a real interval after a real snapshot yields a rate.
    reg.counter("kserved_jobs_total", "jobs",
                {{"outcome", "done"}})
        .inc(4);
    const std::string frame =
        model.render(ktopSnapshot(reg.toJson()), 2.0);
    EXPECT_NE(frame.find("jobs 2.0/s"), std::string::npos) << frame;
}
