/**
 * @file
 * Tests for the parallel experiment runner and the typed-options /
 * machine-readable-results API it ships with: thread-pool execution,
 * retry/skip semantics, the parallel==serial bit-identity contract
 * of the evaluation sweep, Options validation, and the JSON layer's
 * round-trips (RunResult, sweep results files).
 */

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "bench/sweep.hh"
#include "common/json.hh"
#include "common/options.hh"
#include "gpu/gpu_system.hh"
#include "runner/runner.hh"
#include "runner/thread_pool.hh"

#include "error_text.hh"

using namespace killi;

namespace
{

/** Parse "key=value" test arguments through a real argv. */
void
parseArgs(Options &opts, std::vector<std::string> args)
{
    std::vector<char *> argv;
    static char name[] = "runner_test";
    argv.push_back(name);
    for (auto &arg : args)
        argv.push_back(arg.data());
    opts.parse(static_cast<int>(argv.size()), argv.data());
}

RunnerOptions
quiet(unsigned jobs, unsigned retries = 1)
{
    RunnerOptions opt;
    opt.jobs = jobs;
    opt.retries = retries;
    opt.verbose = false;
    return opt;
}

} // namespace

// ---------------------------------------------------------------
// ThreadPool
// ---------------------------------------------------------------

TEST(ThreadPool, RunsEverySubmittedTask)
{
    ThreadPool pool(4);
    std::atomic<int> done{0};
    for (int i = 0; i < 100; ++i)
        pool.submit([&] { ++done; });
    pool.wait();
    EXPECT_EQ(done.load(), 100);
}

TEST(ThreadPool, WaitCanBeCalledRepeatedly)
{
    ThreadPool pool(2);
    std::atomic<int> done{0};
    pool.wait(); // nothing queued
    pool.submit([&] { ++done; });
    pool.wait();
    EXPECT_EQ(done.load(), 1);
    pool.submit([&] { ++done; });
    pool.submit([&] { ++done; });
    pool.wait();
    EXPECT_EQ(done.load(), 3);
}

TEST(ThreadPool, SingleThreadPoolStillWorks)
{
    ThreadPool pool(1);
    std::atomic<int> done{0};
    for (int i = 0; i < 10; ++i)
        pool.submit([&] { ++done; });
    pool.wait();
    EXPECT_EQ(done.load(), 10);
}

TEST(ThreadPool, DrainClosesIntakeButFinishesAcceptedWork)
{
    ThreadPool pool(2);
    std::atomic<int> done{0};
    for (int i = 0; i < 20; ++i)
        EXPECT_TRUE(pool.submit([&] { ++done; }));
    EXPECT_FALSE(pool.draining());
    pool.drain();
    EXPECT_TRUE(pool.draining());
    EXPECT_EQ(done.load(), 20); // everything accepted ran
    // The intake is closed: late work is refused and dropped.
    EXPECT_FALSE(pool.submit([&] { ++done; }));
    pool.wait();
    EXPECT_EQ(done.load(), 20);
}

TEST(CancelToken, StickyUntilReset)
{
    CancelToken token;
    EXPECT_FALSE(token.cancelled());
    token.cancel();
    token.cancel(); // idempotent
    EXPECT_TRUE(token.cancelled());
    token.reset();
    EXPECT_FALSE(token.cancelled());
}

// ---------------------------------------------------------------
// ExperimentRunner
// ---------------------------------------------------------------

TEST(ExperimentRunner, RunsEveryJobInline)
{
    std::vector<int> hits(8, 0);
    std::vector<Job> jobs;
    for (std::size_t i = 0; i < hits.size(); ++i)
        jobs.push_back({"job" + std::to_string(i),
                        [&hits, i] { hits[i] = 1; }});

    ExperimentRunner runner(quiet(1));
    const CampaignReport report = runner.run(jobs);

    ASSERT_EQ(report.jobs.size(), hits.size());
    EXPECT_TRUE(report.allOk());
    EXPECT_EQ(report.threads, 1u);
    for (std::size_t i = 0; i < hits.size(); ++i) {
        EXPECT_EQ(hits[i], 1);
        EXPECT_EQ(report.jobs[i].outcome, JobOutcome::Done);
        EXPECT_EQ(report.jobs[i].name, "job" + std::to_string(i));
        EXPECT_EQ(report.jobs[i].attempts, 1u);
    }
}

TEST(ExperimentRunner, RunsEveryJobOnThreads)
{
    std::vector<int> hits(32, 0);
    std::vector<Job> jobs;
    for (std::size_t i = 0; i < hits.size(); ++i)
        jobs.push_back({"job" + std::to_string(i),
                        [&hits, i] { hits[i] = 1; }});

    ExperimentRunner runner(quiet(4));
    const CampaignReport report = runner.run(jobs);

    EXPECT_TRUE(report.allOk());
    EXPECT_EQ(report.threads, 4u);
    for (std::size_t i = 0; i < hits.size(); ++i)
        EXPECT_EQ(hits[i], 1);
}

TEST(ExperimentRunner, RetriesFlakyJobUntilItSucceeds)
{
    std::atomic<int> attempts{0};
    const std::vector<Job> jobs{
        {"flaky", [&] {
             if (++attempts == 1)
                 throw std::runtime_error("transient");
         }}};

    ExperimentRunner runner(quiet(1, /*retries=*/1));
    const CampaignReport report = runner.run(jobs);

    EXPECT_TRUE(report.allOk());
    EXPECT_EQ(report.jobs[0].outcome, JobOutcome::Done);
    EXPECT_EQ(report.jobs[0].attempts, 2u);
    EXPECT_EQ(attempts.load(), 2);
}

TEST(ExperimentRunner, RecordsPermanentFailureAndContinues)
{
    std::atomic<int> attempts{0};
    int otherRan = 0;
    const std::vector<Job> jobs{
        {"broken", [&] {
             ++attempts;
             throw std::runtime_error("always fails");
         }},
        {"fine", [&] { otherRan = 1; }}};

    ExperimentRunner runner(quiet(1, /*retries=*/2));
    const CampaignReport report = runner.run(jobs);

    EXPECT_FALSE(report.allOk());
    EXPECT_EQ(report.failures(), 1u);
    EXPECT_EQ(report.skipped(), 0u);
    EXPECT_EQ(report.jobs[0].outcome, JobOutcome::Failed);
    EXPECT_EQ(report.jobs[0].attempts, 3u); // 1 + 2 retries
    EXPECT_EQ(report.jobs[0].error, "always fails");
    EXPECT_EQ(attempts.load(), 3);
    EXPECT_EQ(report.jobs[1].outcome, JobOutcome::Done);
    EXPECT_EQ(otherRan, 1);
}

TEST(ExperimentRunner, CancelledTokenSkipsQueuedJobs)
{
    // The first job trips the shared token mid-campaign: with one
    // inline worker, every job queued behind it must be reported
    // Skipped without its body ever running.
    CancelToken token;
    int laterRan = 0;
    const std::vector<Job> jobs{
        {"first", [&] { token.cancel(); }},
        {"second", [&] { laterRan = 1; }},
        {"third", [&] { laterRan = 1; }}};

    RunnerOptions opt = quiet(1);
    opt.cancel = &token;
    ExperimentRunner runner(opt);
    const CampaignReport report = runner.run(jobs);

    EXPECT_EQ(report.jobs[0].outcome, JobOutcome::Done);
    EXPECT_EQ(report.jobs[1].outcome, JobOutcome::Skipped);
    EXPECT_EQ(report.jobs[2].outcome, JobOutcome::Skipped);
    EXPECT_EQ(report.jobs[1].name, "second");
    EXPECT_EQ(report.skipped(), 2u);
    EXPECT_EQ(laterRan, 0);
}

TEST(ExperimentRunner, PreCancelledTokenSkipsEverything)
{
    CancelToken token;
    token.cancel();
    int ran = 0;
    const std::vector<Job> jobs{{"only", [&] { ran = 1; }}};
    RunnerOptions opt = quiet(4);
    opt.cancel = &token;
    const CampaignReport report = ExperimentRunner(opt).run(jobs);
    EXPECT_EQ(report.jobs[0].outcome, JobOutcome::Skipped);
    EXPECT_EQ(report.skipped(), 1u);
    EXPECT_EQ(ran, 0);
}

TEST(ExperimentRunner, CampaignReportSerializes)
{
    const std::vector<Job> jobs{{"a", [] {}},
                                {"b", [] {
                                     throw std::runtime_error("nope");
                                 }}};
    ExperimentRunner runner(quiet(1, /*retries=*/0));
    const Json doc = runner.run(jobs).toJson();

    ASSERT_TRUE(doc.contains("jobs"));
    EXPECT_EQ(doc.at("jobs").size(), 2u);
    EXPECT_EQ(doc.at("jobs").at(0).at("name").asString(), "a");
    EXPECT_EQ(doc.at("jobs").at(0).at("outcome").asString(), "done");
    EXPECT_EQ(doc.at("jobs").at(1).at("outcome").asString(), "failed");
    EXPECT_EQ(doc.at("jobs").at(1).at("error").asString(), "nope");
    EXPECT_TRUE(doc.contains("threads"));
    EXPECT_TRUE(doc.contains("seconds"));
}

// ---------------------------------------------------------------
// Options validation
// ---------------------------------------------------------------

TEST(OptionsDeathTest, UnknownKeyIsFatal)
{
    EXPECT_DEATH(
        {
            Options opts("t", "test");
            opts.add<double>("voltage", 0.625, "v");
            parseArgs(opts, {"bogus=1"});
        },
        "unknown option 'bogus'");
}

TEST(OptionsDeathTest, MalformedNumberIsFatal)
{
    EXPECT_DEATH(
        {
            Options opts("t", "test");
            opts.add<double>("voltage", 0.625, "v");
            parseArgs(opts, {"voltage=fast"});
        },
        "voltage");
}

TEST(OptionsDeathTest, MalformedIntegerIsFatal)
{
    EXPECT_DEATH(
        {
            Options opts("t", "test");
            opts.add<std::int64_t>("ratio", 256, "r");
            parseArgs(opts, {"ratio=25six"});
        },
        "ratio.*expects a");
}

TEST(OptionsDeathTest, MalformedBoolIsFatal)
{
    EXPECT_DEATH(
        {
            Options opts("t", "test");
            opts.add<bool>("verbose", false, "v");
            parseArgs(opts, {"verbose=yep"});
        },
        "verbose.*expects a");
}

TEST(OptionsDeathTest, TrailingGarbageOnNumberIsFatal)
{
    // strtoull would silently accept "42abc" as 42; the strict
    // parser must not.
    EXPECT_DEATH(
        {
            Options opts("t", "test");
            opts.add<std::uint64_t>("seed", 42, "s");
            parseArgs(opts, {"seed=42abc"});
        },
        "seed.*expects a");
}

TEST(Options, StrictParsersAcceptOnlyWholeTokens)
{
    std::int64_t i = 0;
    std::uint64_t u = 0;
    double d = 0;
    bool b = false;
    EXPECT_TRUE(tryParseInt("-42", i));
    EXPECT_EQ(i, -42);
    EXPECT_TRUE(tryParseUint("42", u));
    EXPECT_EQ(u, 42u);
    EXPECT_TRUE(tryParseDouble("0.625", d));
    EXPECT_DOUBLE_EQ(d, 0.625);
    EXPECT_TRUE(tryParseBool("on", b));
    EXPECT_TRUE(b);
    for (const char *bad : {"", "42abc", "25six", "4 2"}) {
        EXPECT_FALSE(tryParseInt(bad, i)) << bad;
        EXPECT_FALSE(tryParseUint(bad, u)) << bad;
        EXPECT_FALSE(tryParseDouble(bad, d)) << bad;
    }
    EXPECT_FALSE(tryParseUint("-1", u));
    EXPECT_FALSE(tryParseDouble("half", d));
    EXPECT_FALSE(tryParseBool("yep", b));
    EXPECT_FALSE(tryParseBool("", b));
}

TEST(OptionsDeathTest, OutOfRangeValueIsFatal)
{
    EXPECT_DEATH(
        {
            Options opts("t", "test");
            opts.add<double>("voltage", 0.625, "v").range(0.5, 1.0);
            parseArgs(opts, {"voltage=0.3"});
        },
        "voltage");
}

TEST(OptionsDeathTest, ValueOutsideChoicesIsFatal)
{
    EXPECT_DEATH(
        {
            Options opts("t", "test");
            opts.add<std::uint64_t>("ratio", 256, "r")
                .choices({16, 32, 64, 128, 256});
            parseArgs(opts, {"ratio=100"});
        },
        "ratio");
}

TEST(OptionsDeathTest, BareTokenWithoutEqualsIsFatal)
{
    EXPECT_DEATH(
        {
            Options opts("t", "test");
            parseArgs(opts, {"voltage"});
        },
        "key=value");
}

TEST(OptionsDeathTest, RedeclaringAnOptionIsFatal)
{
    EXPECT_DEATH(
        {
            Options opts("t", "test");
            opts.add<double>("voltage", 0.625, "v");
            opts.add<double>("voltage", 0.7, "again");
        },
        "voltage");
}

TEST(Options, ParsesTypedValuesAndTracksIsSet)
{
    Options opts("t", "test");
    const auto &voltage =
        opts.add<double>("voltage", 0.625, "v").range(0.5, 1.0);
    const auto &seed = opts.add<std::uint64_t>("seed", 42, "s");
    const auto &name = opts.add("workload", "xsbench", "w");
    const auto &fast = opts.add<bool>("fast", false, "f");
    parseArgs(opts, {"voltage=0.55", "fast=true"});

    EXPECT_DOUBLE_EQ(voltage.value(), 0.55);
    EXPECT_EQ(seed.value(), 42u);
    EXPECT_EQ(name.value(), "xsbench");
    EXPECT_TRUE(fast.value());
    EXPECT_TRUE(opts.has("voltage"));
    EXPECT_FALSE(opts.has("seed"));
    EXPECT_DOUBLE_EQ(opts.get<double>("voltage"), 0.55);
}

TEST(Options, FallsBackToEnvironmentVariables)
{
    ::setenv("KILLI_RUNNER_TEST_KNOB", "7", 1);
    Options opts("t", "test");
    const auto &knob =
        opts.add<std::uint64_t>("runner.test.knob", 1, "k");
    parseArgs(opts, {});
    EXPECT_EQ(knob.value(), 7u);
    EXPECT_TRUE(opts.has("runner.test.knob"));
    ::unsetenv("KILLI_RUNNER_TEST_KNOB");
}

TEST(Options, CommandLineBeatsEnvironment)
{
    ::setenv("KILLI_RUNNER_TEST_KNOB", "7", 1);
    Options opts("t", "test");
    const auto &knob =
        opts.add<std::uint64_t>("runner.test.knob", 1, "k");
    parseArgs(opts, {"runner.test.knob=9"});
    EXPECT_EQ(knob.value(), 9u);
    ::unsetenv("KILLI_RUNNER_TEST_KNOB");
}

TEST(Options, ToJsonRecordsEffectiveValuesInDeclarationOrder)
{
    Options opts("t", "test");
    opts.add<double>("voltage", 0.625, "v");
    opts.add<std::uint64_t>("seed", 42, "s");
    parseArgs(opts, {"voltage=0.6"});

    const Json doc = opts.toJson();
    ASSERT_EQ(doc.members().size(), 2u);
    EXPECT_EQ(doc.members()[0].first, "voltage");
    EXPECT_DOUBLE_EQ(doc.at("voltage").asDouble(), 0.6);
    EXPECT_EQ(doc.at("seed").asInt(), 42);
}

TEST(Options, HelpListsEveryDeclaredOption)
{
    Options opts("prog", "summary line");
    opts.add<double>("voltage", 0.625, "supply voltage")
        .range(0.5, 1.0);
    opts.add("workload", "xsbench", "workload name");
    std::ostringstream help;
    opts.printHelp(help);
    const std::string text = help.str();
    EXPECT_NE(text.find("prog"), std::string::npos);
    EXPECT_NE(text.find("summary line"), std::string::npos);
    EXPECT_NE(text.find("voltage"), std::string::npos);
    EXPECT_NE(text.find("supply voltage"), std::string::npos);
    EXPECT_NE(text.find("KILLI_"), std::string::npos);
}

// ---------------------------------------------------------------
// JSON round-trips
// ---------------------------------------------------------------

TEST(RunResultJson, RoundTripsEveryCounter)
{
    RunResult r;
    r.cycles = 1234567;
    r.instructions = 89012;
    r.l2ReadHits = 1;
    r.l2ReadMisses = 2;
    r.l2ErrorMisses = 3;
    r.l2WriteHits = 4;
    r.l2WriteMisses = 5;
    r.l2Evictions = 6;
    r.l2ProtInvalidations = 7;
    r.l2BypassFills = 8;
    r.sdc = 9;
    r.dramReads = 10;
    r.dramWrites = 11;

    const RunResult back = RunResult::fromJson(r.toJson());
    EXPECT_EQ(back.toJson(), r.toJson());
    EXPECT_EQ(back.cycles, r.cycles);
    EXPECT_EQ(back.sdc, 9u);
    EXPECT_EQ(back.dramWrites, 11u);
}

// ---------------------------------------------------------------
// Evaluation sweep: parallel == serial, and the results file
// ---------------------------------------------------------------

namespace
{

SweepOptions
tinySweep(unsigned jobs)
{
    SweepOptions opt;
    opt.scale = 0.02;
    opt.warmupPasses = 0;
    opt.voltage = 0.625;
    opt.seed = 42;
    opt.jobs = jobs;
    opt.workloads = {"xsbench", "spmv"};
    opt.schemes = {"DECTED", "MS-ECC", "Killi 1:256"};
    return opt;
}

Json
sweepData(const SweepResult &res)
{
    // Results only — the campaign report's timings legitimately vary
    // between runs; the measured data must not.
    Json doc = Json::array();
    for (const auto &ws : res.workloads) {
        Json w = Json::object();
        w.set("workload", Json::string(ws.workload));
        w.set("baseline_ok", Json::boolean(ws.baselineOk));
        w.set("baseline", ws.baseline.toJson());
        Json schemes = Json::array();
        for (const auto &run : ws.schemes) {
            Json s = Json::object();
            s.set("scheme", Json::string(run.scheme));
            s.set("ok", Json::boolean(run.ok));
            s.set("result", run.result.toJson());
            schemes.push(std::move(s));
        }
        w.set("schemes", std::move(schemes));
        doc.push(std::move(w));
    }
    return doc;
}

} // namespace

TEST(EvaluationSweep, ParallelRunIsBitIdenticalToSerial)
{
    const SweepResult serial = runEvaluationSweep(tinySweep(1));
    const SweepResult parallel = runEvaluationSweep(tinySweep(4));

    ASSERT_EQ(serial.workloads.size(), 2u);
    ASSERT_EQ(serial.workloads[0].schemes.size(), 3u);
    EXPECT_TRUE(serial.campaign.allOk());
    EXPECT_TRUE(parallel.campaign.allOk());
    EXPECT_EQ(sweepData(serial), sweepData(parallel));
}

TEST(EvaluationSweep, EmptyTraceDirTracesWithoutWritingFiles)
{
    // An empty trace-dir means "no per-point trace files", the same
    // convention json= and timeseries= follow. Run from a fresh
    // directory so any file the sweep wrote would show up in it.
    namespace fs = std::filesystem;
    const fs::path dir =
        fs::path(::testing::TempDir()) / "killi_runner_test_no_trace";
    fs::remove_all(dir);
    fs::create_directories(dir);
    const fs::path cwd = fs::current_path();
    fs::current_path(dir);

    SweepOptions opt = tinySweep(1);
    opt.workloads = {"spmv"};
    opt.schemes = {"Killi 1:256"};
    opt.trace = "dfh";
    opt.traceDir = "";
    SweepResult res;
    EXPECT_NO_THROW(res = runEvaluationSweep(opt));
    fs::current_path(cwd);

    EXPECT_TRUE(res.campaign.allOk());
    EXPECT_EQ(res.workloads.size(), 1u);
    EXPECT_TRUE(fs::is_empty(dir));
    EXPECT_FALSE(fs::exists("/spmv_Killi_1_256.trace.json"));
    fs::remove_all(dir);
}

TEST(EvaluationSweep, TracedParallelRunWritesTheSerialTraceFiles)
{
    // Each sweep point builds, fills and writes its own TraceSink on
    // the worker thread that runs it, so at jobs=4 every per-point
    // trace file must be byte-identical to the jobs=1 one. With only
    // some categories compiled in, the files hold fewer events but
    // must still agree.
    namespace fs = std::filesystem;
    const fs::path root =
        fs::path(::testing::TempDir()) / "killi_runner_test_traced";
    fs::remove_all(root);
    std::map<std::string, std::string> files[2];
    const unsigned jobsOf[2] = {1, 4};
    for (std::size_t run = 0; run < 2; ++run) {
        SweepOptions opt = tinySweep(jobsOf[run]);
        opt.schemes = {"Killi 1:256"};
        opt.trace = "all";
        opt.traceDir = (root / std::to_string(jobsOf[run])).string();
        const SweepResult res = runEvaluationSweep(opt);
        ASSERT_TRUE(res.campaign.allOk());
        for (const auto &entry : fs::directory_iterator(opt.traceDir)) {
            std::ifstream in(entry.path(), std::ios::binary);
            std::ostringstream text;
            text << in.rdbuf();
            files[run][entry.path().filename().string()] = text.str();
        }
    }
    fs::remove_all(root);

    // Two workloads, each a baseline and a Killi point.
    ASSERT_EQ(files[0].size(), 4u);
    ASSERT_EQ(files[1].size(), 4u);
    for (const auto &[name, serial] : files[0]) {
        ASSERT_TRUE(files[1].count(name)) << name;
        EXPECT_GT(serial.size(), 0u) << name;
        // Not EXPECT_EQ: a mismatch would print megabytes of JSON.
        EXPECT_TRUE(serial == files[1][name])
            << name << " differs between jobs=1 and jobs=4";
    }
}

TEST(EvaluationSweep, ResultsFileIsWellFormedAndConsumable)
{
    SweepOptions opt = tinySweep(2);
    opt.workloads = {"spmv"};
    opt.schemes = {"Killi 1:256"};
    const SweepResult res = runEvaluationSweep(opt);

    const std::string path = ::testing::TempDir() +
        "/killi_runner_test_sweep.json";
    writeJsonFile(path, sweepToJson(opt, res));

    const Json doc = readJsonFile(path);
    ASSERT_TRUE(doc.contains("workloads"));
    ASSERT_EQ(doc.at("workloads").size(), 1u);
    const Json &ws = doc.at("workloads").at(0);
    EXPECT_EQ(ws.at("workload").asString(), "spmv");
    ASSERT_TRUE(ws.at("schemes").at(0).at("ok").asBool());

    // Consume the file the way a plotting script would: recover the
    // baseline-normalized execution time from raw RunResults.
    const RunResult base = RunResult::fromJson(ws.at("baseline"));
    const RunResult killi =
        RunResult::fromJson(ws.at("schemes").at(0).at("result"));
    ASSERT_GT(base.cycles, 0u);
    const double normTime =
        double(killi.cycles) / double(base.cycles);
    EXPECT_GT(normTime, 0.9);
    EXPECT_LT(normTime, 3.0);

    // And it matches the in-memory result exactly.
    EXPECT_EQ(killi.toJson(),
              res.workloads[0].schemes[0].result.toJson());
    std::remove(path.c_str());
}

TEST(EvaluationSweepDeathTest, UnknownSchemeNameIsFatal)
{
    // A library error: it throws, so a daemon thread can report it
    // (an uncaught one still ends a command-line tool as fatal).
    SweepOptions opt = tinySweep(1);
    opt.schemes = {"NotAScheme"};
    EXPECT_NE(errorText([&] { runEvaluationSweep(opt); })
                  .find("sweep: unknown scheme 'NotAScheme'"),
              std::string::npos);
}

TEST(EvaluationSweep, UncreatableTraceDirThrows)
{
    // A directory cannot be created under a regular file.
    const std::string file = "runner_test_not_a_dir";
    std::ofstream(file) << "x";
    SweepOptions opt = tinySweep(1);
    opt.trace = "all";
    opt.traceDir = file + "/trace";
    EXPECT_NE(errorText([&] { runEvaluationSweep(opt); })
                  .find("sweep: cannot create directory "
                        "'runner_test_not_a_dir/trace'"),
              std::string::npos);
    std::remove(file.c_str());
}

// ---------------------------------------------------------------
// GNU-style option spellings (--key=value, --key value, bare --flag)
// accepted alongside the original key=value tokens.

TEST(Options, DashedKeyEqualsValue)
{
    Options opts("t", "test");
    opts.add<std::uint64_t>("runs", 10, "cases");
    parseArgs(opts, {"--runs=42"});
    EXPECT_EQ(opts.get<std::uint64_t>("runs"), 42u);
}

TEST(Options, DashedKeyThenValueToken)
{
    Options opts("t", "test");
    opts.add<std::uint64_t>("runs", 10, "cases");
    opts.add<std::uint64_t>("jobs", 0, "threads");
    parseArgs(opts, {"--runs", "500", "--jobs", "4"});
    EXPECT_EQ(opts.get<std::uint64_t>("runs"), 500u);
    EXPECT_EQ(opts.get<std::uint64_t>("jobs"), 4u);
}

TEST(Options, MixedSpellingsInOneCommandLine)
{
    Options opts("t", "test");
    opts.add<std::uint64_t>("runs", 10, "cases");
    opts.add<double>("voltage", 0.625, "v");
    parseArgs(opts, {"runs=7", "--voltage", "0.55"});
    EXPECT_EQ(opts.get<std::uint64_t>("runs"), 7u);
    EXPECT_DOUBLE_EQ(opts.get<double>("voltage"), 0.55);
}

TEST(Options, BareBoolFlagSetsTrue)
{
    Options opts("t", "test");
    opts.add<bool>("shrink", false, "minimize failures");
    opts.add<std::uint64_t>("runs", 10, "cases");
    // Both at the end of argv and followed by another option.
    parseArgs(opts, {"--shrink", "--runs", "3"});
    EXPECT_TRUE(opts.get<bool>("shrink"));
    EXPECT_EQ(opts.get<std::uint64_t>("runs"), 3u);

    Options opts2("t", "test");
    opts2.add<bool>("shrink", false, "minimize failures");
    parseArgs(opts2, {"--shrink"});
    EXPECT_TRUE(opts2.get<bool>("shrink"));
}

TEST(Options, BoolFlagStillTakesExplicitValue)
{
    Options opts("t", "test");
    opts.add<bool>("shrink", true, "minimize failures");
    parseArgs(opts, {"--shrink", "false"});
    EXPECT_FALSE(opts.get<bool>("shrink"));
}

TEST(OptionsDeathTest, DashedNonBoolWithoutValueIsFatal)
{
    EXPECT_DEATH(
        {
            Options opts("t", "test");
            opts.add<std::uint64_t>("runs", 10, "cases");
            parseArgs(opts, {"--runs"});
        },
        "needs a value");
}
