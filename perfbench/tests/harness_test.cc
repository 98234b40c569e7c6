// Harness tests for the benchmark program: the forwarding decorators,
// the percentile helper, and the metric names it can emit.

#include <gtest/gtest.h>

#include <cctype>
#include <regex>
#include <set>

#include "catalog.hh"
#include "decorators.hh"
#include "summary.hh"
#include "trace/timeseries.hh"
#include "trace/trace.hh"

using namespace killi;
using namespace perfbench;

namespace
{

/** Records every hook call and returns distinctive values. */
class RecordingScheme : public ProtectionScheme
{
  public:
    /** Mutable: the const hooks are recorded too. */
    mutable std::vector<std::string> calls;

    std::string name() const override { return "recording"; }
    void attach(L2Backdoor &b, const CacheGeometry &g) override
    {
        ProtectionScheme::attach(b, g);
        calls.push_back("attach");
    }
    void reset() override { calls.push_back("reset"); }
    bool canAllocate(std::size_t id) const override
    {
        log("canAllocate", id);
        return id % 2 == 0;
    }
    int allocPriority(std::size_t id) const override
    {
        log("allocPriority", id);
        return int(id) + 7;
    }
    Cycle onFill(std::size_t id, const BitVec &) override
    {
        log("onFill", id);
        return 11;
    }
    void onWriteHit(std::size_t id, const BitVec &) override
    {
        log("onWriteHit", id);
    }
    WritebackOutcome onWriteback(std::size_t id, const BitVec &) override
    {
        log("onWriteback", id);
        return {false, 13};
    }
    AccessResult onReadHit(std::size_t id, const BitVec &) override
    {
        log("onReadHit", id);
        return {id == 3, false, 17};
    }
    Cycle onEvict(std::size_t id, const BitVec &) override
    {
        log("onEvict", id);
        return 19;
    }
    void onInvalidate(std::size_t id) override { log("onInvalidate", id); }
    void onTouch(std::size_t id) override { log("onTouch", id); }
    void onMaintenance() override { calls.push_back("onMaintenance"); }
    std::size_t usableLines() const override
    {
        calls.push_back("usableLines");
        return 23;
    }
    void setTrace(TraceSink *sink) override
    {
        ProtectionScheme::setTrace(sink);
        calls.push_back(sink ? "setTrace" : "setTrace(null)");
    }
    void addTimeseriesSources(StatTimeseries &) override
    {
        calls.push_back("addTimeseriesSources");
    }

  private:
    void log(const char *hook, std::size_t id) const
    {
        calls.push_back(std::string(hook) + "(" + std::to_string(id) +
                        ")");
    }
};

class NullBackdoor : public L2Backdoor
{
  public:
    void invalidateLine(std::size_t) override {}
    Tick now() const override { return 5; }
};

class CountingWorkload : public Workload
{
  public:
    CountingWorkload() : Workload("counting", true, 3, 9, 1) {}
    mutable std::vector<std::string> calls;

    std::uint64_t opsFor(unsigned cu, unsigned wf) const override
    {
        calls.push_back("opsFor");
        return cu + wf + 4;
    }
    MemOp op(unsigned cu, unsigned wf, std::uint64_t idx) const override
    {
        calls.push_back("op");
        return MemOp{Addr(cu * 1000 + wf * 100 + idx), idx % 2 == 1,
                     unsigned(idx + 2)};
    }
};

} // namespace

TEST(Decorators, ProtectionForwardsEveryHook)
{
    RecordingScheme inner;
    TimedProtection timed(inner);
    NullBackdoor backdoor;
    const CacheGeometry geom{64 * 1024, 16, 64, 1};
    BitVec line(512);
    TraceSink sink;
    StatTimeseries series(100);

    EXPECT_EQ(timed.name(), "recording");
    timed.attach(backdoor, geom);
    timed.setTrace(&sink);
    timed.addTimeseriesSources(series);
    timed.reset();
    EXPECT_TRUE(timed.canAllocate(4));
    EXPECT_FALSE(timed.canAllocate(5));
    EXPECT_EQ(timed.allocPriority(2), 9);
    EXPECT_EQ(timed.onFill(1, line), 11u);
    timed.onWriteHit(2, line);
    const WritebackOutcome wb = timed.onWriteback(3, line);
    EXPECT_FALSE(wb.clean);
    EXPECT_EQ(wb.extraCost, 13u);
    const AccessResult hit = timed.onReadHit(4, line);
    EXPECT_FALSE(hit.errorInducedMiss);
    EXPECT_EQ(hit.extraLatency, 17u);
    EXPECT_TRUE(timed.onReadHit(3, line).errorInducedMiss);
    EXPECT_EQ(timed.onEvict(5, line), 19u);
    timed.onInvalidate(6);
    timed.onTouch(7);
    timed.onMaintenance();
    EXPECT_EQ(timed.usableLines(), 23u);

    const std::vector<std::string> want = {
        "attach", "setTrace", "addTimeseriesSources", "reset",
        "canAllocate(4)", "canAllocate(5)", "allocPriority(2)",
        "onFill(1)", "onWriteHit(2)", "onWriteback(3)", "onReadHit(4)",
        "onReadHit(3)", "onEvict(5)", "onInvalidate(6)", "onTouch(7)",
        "onMaintenance", "usableLines"};
    EXPECT_EQ(inner.calls, want);

    const HookTally &t = timed.tally();
    EXPECT_EQ(t.calls[std::size_t(Hook::ReadHit)], 2u);
    EXPECT_EQ(t.calls[std::size_t(Hook::Alloc)], 3u);
    EXPECT_EQ(t.calls[std::size_t(Hook::Fill)], 1u);
    EXPECT_EQ(t.calls[std::size_t(Hook::Evict)], 1u);
    EXPECT_EQ(t.calls[std::size_t(Hook::WriteHit)], 1u);
    EXPECT_EQ(t.calls[std::size_t(Hook::Writeback)], 1u);
    EXPECT_EQ(t.calls[std::size_t(Hook::Other)], 4u);
    EXPECT_EQ(t.readHitClean, 1u);
}

TEST(Decorators, WorkloadForwardsEveryMember)
{
    CountingWorkload inner;
    TimedWorkload timed(inner);
    EXPECT_EQ(timed.name(), "counting");
    EXPECT_TRUE(timed.memoryBound());
    EXPECT_EQ(timed.wavefrontsPerCu(), 3u);
    EXPECT_EQ(timed.opsPerWavefront(), 9u);
    EXPECT_EQ(timed.opsFor(1, 2), 7u);
    const MemOp a = timed.op(1, 2, 3);
    const MemOp b = inner.op(1, 2, 3);
    EXPECT_EQ(a.addr, b.addr);
    EXPECT_EQ(a.isWrite, b.isWrite);
    EXPECT_EQ(a.computeCycles, b.computeCycles);
    EXPECT_EQ(timed.opCalls(), 1u);
    const std::vector<std::string> want = {"opsFor", "op", "op"};
    EXPECT_EQ(inner.calls, want);
}

TEST(Percentile, NullWhenFewerThanTenSamplesBeyond)
{
    std::vector<double> s;
    for (int i = 1; i <= 19; ++i)
        s.push_back(i);
    EXPECT_EQ(samplesBeyond(19, 0.5), 9u);
    EXPECT_FALSE(percentile(s, 0.5).has_value());
    s.push_back(20);
    ASSERT_TRUE(percentile(s, 0.5).has_value());
    EXPECT_EQ(*percentile(s, 0.5), 10.0);

    std::vector<double> tail(99, 1.0);
    EXPECT_FALSE(percentile(tail, 0.9).has_value());
    tail.push_back(2.0);
    ASSERT_TRUE(percentile(tail, 0.9).has_value());
    EXPECT_EQ(samplesBeyond(100, 0.9), 10u);
    EXPECT_FALSE(percentile({}, 0.5).has_value());
}

TEST(Percentile, MetricSetRecordsSampleCountAndReason)
{
    MetricSet m;
    m.percentile("point_ms_p90", std::vector<double>(50, 1.0), 0.9);
    const Metric *p = m.find("point_ms_p90");
    ASSERT_NE(p, nullptr);
    EXPECT_FALSE(p->value.has_value());
    EXPECT_EQ(p->samples, 50u);
    EXPECT_EQ(p->unit, "ms");
    EXPECT_FALSE(p->note.empty());
}

TEST(Names, EveryCatalogNameIsWellFormedAndUnique)
{
    const std::regex shape("[A-Za-z0-9_.-]+");
    std::set<std::string> seen;
    for (const auto *group :
         {&endToEndCatalog(), &workloadCatalog(), &layerCatalog()}) {
        for (const CatalogEntry &e : *group) {
            EXPECT_TRUE(std::regex_match(e.name, shape)) << e.name;
            EXPECT_TRUE(std::isalnum(static_cast<unsigned char>(e.name[0])))
                << e.name;
            EXPECT_LE(e.name.size(), 64u) << e.name;
            EXPECT_FALSE(e.unit.empty()) << e.name;
            EXPECT_TRUE(seen.insert(e.name).second) << "dup " << e.name;
        }
    }
    EXPECT_FALSE(std::regex_match(std::string("bad name"), shape));
}

TEST(Names, MetricSetRejectsUncataloguedNames)
{
    MetricSet m;
    EXPECT_DEATH(m.set("not.in.catalog", 1.0), "not in the catalog");
}
