/**
 * @file
 * Regression corpus replay: every scenario committed under
 * tests/corpus/ is a minimized kcheck seed file (one per KilliParams
 * extension) and must run violation-free. When kcheck finds and
 * shrinks a real counterexample, the fixed scenario gets added here
 * so the bug stays dead.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <string>
#include <vector>

#include "check/checker.hh"
#include "check/scenario.hh"
#include "common/json.hh"
#include "replay/recording.hh"
#include "replay/session.hh"

namespace killi::check
{
namespace
{

std::vector<std::filesystem::path>
corpusFiles()
{
    std::vector<std::filesystem::path> files;
    for (const auto &entry :
         std::filesystem::directory_iterator(KCHECK_CORPUS_DIR)) {
        if (entry.path().extension() == ".json")
            files.push_back(entry.path());
    }
    std::sort(files.begin(), files.end());
    return files;
}

TEST(KcheckCorpus, HasOneSeedPerExtension)
{
    const auto files = corpusFiles();
    ASSERT_GE(files.size(), 6u);
    bool dected = false, invertedWrite = false, writeback = false,
         smallRatio = false, interleaveOff = false;
    bool clustered = false, burst = false, droop = false;
    for (const auto &path : files) {
        const Scenario s =
            Scenario::fromJson(readJsonFile(path.string()));
        dected |= s.params.dectedStable;
        invertedWrite |= s.params.invertedWriteCheck;
        writeback |= s.params.writebackMode;
        smallRatio |= s.params.ratio < 256;
        interleaveOff |= !s.params.interleavedParity;
        if (s.faultModel) {
            clustered |= s.faultModel->model == "clustered";
            burst |= s.faultModel->model == "burst";
            droop |= s.faultModel->model == "droop";
        }
    }
    EXPECT_TRUE(dected) << "no corpus seed covers dected_stable";
    EXPECT_TRUE(invertedWrite)
        << "no corpus seed covers inverted_write_check";
    EXPECT_TRUE(writeback) << "no corpus seed covers writeback_mode";
    EXPECT_TRUE(smallRatio) << "no corpus seed covers ratio < 256";
    EXPECT_TRUE(interleaveOff)
        << "no corpus seed covers interleaved_parity=false";
    EXPECT_TRUE(clustered)
        << "no corpus seed carries a clustered background model";
    EXPECT_TRUE(burst)
        << "no corpus seed carries a burst background model";
    EXPECT_TRUE(droop)
        << "no corpus seed carries a droop background model";
}

TEST(KcheckCorpus, AllSeedsReplayWithoutViolations)
{
    const auto files = corpusFiles();
    ASSERT_FALSE(files.empty());
    for (const auto &path : files) {
        const Scenario s =
            Scenario::fromJson(readJsonFile(path.string()));
        const CheckResult res = runScenario(s);
        EXPECT_TRUE(res.ok())
            << path.filename().string() << " (" << s.summary()
            << "): "
            << (res.violations.empty()
                    ? std::string("?")
                    : res.violations.front().message);
    }
}

TEST(KcheckCorpus, ReplayIsDeterministic)
{
    const auto files = corpusFiles();
    ASSERT_FALSE(files.empty());
    const Scenario s =
        Scenario::fromJson(readJsonFile(files.front().string()));
    EXPECT_EQ(runScenario(s).toJson().toString(),
              runScenario(s).toJson().toString());
}

TEST(KcheckCorpus, CommittedRecordingsReplayBitIdentical)
{
    // tests/corpus/recordings/ holds killi-recording-v1 captures of
    // the background fault-model corpus classes (clustered, burst,
    // droop), made with `kcheck replay=<seed> record=<file>`. They
    // pin the RNG draw stream and the result digest across commits:
    // any change to fault sampling or the checker's verdicts — even
    // one that keeps the corpus violation-free — shows up here as a
    // precise (stream, index) divergence, not a silent drift.
    std::vector<std::filesystem::path> recs;
    const auto dir =
        std::filesystem::path(KCHECK_CORPUS_DIR) / "recordings";
    ASSERT_TRUE(std::filesystem::is_directory(dir))
        << dir << " missing";
    for (const auto &entry :
         std::filesystem::directory_iterator(dir)) {
        if (entry.path().extension() == ".json")
            recs.push_back(entry.path());
    }
    std::sort(recs.begin(), recs.end());
    ASSERT_GE(recs.size(), 3u)
        << "expected recordings for clustered/burst/droop";
    for (const auto &path : recs) {
        const replay::Recording rec =
            replay::Recording::loadFile(path.string());
        EXPECT_EQ(rec.tool, "kcheck") << path.filename().string();
        const replay::CheckSession s = replay::replayScenario(rec);
        EXPECT_TRUE(s.verified)
            << path.filename().string() << ": "
            << s.divergence.summary();
        EXPECT_TRUE(s.result.ok()) << path.filename().string();
    }
}

} // namespace
} // namespace killi::check
