#include "decorators.hh"

#include "summary.hh"

using killi::AccessResult;
using killi::BitVec;
using killi::Cycle;

namespace perfbench
{

const char *
hookName(Hook hook)
{
    static constexpr const char *kNames[kHookCount] = {
        "read_hit", "fill", "evict", "write_hit",
        "writeback", "alloc", "other"};
    return kNames[std::size_t(hook)];
}

std::uint64_t
HookTally::totalNs() const
{
    std::uint64_t sum = 0;
    for (const std::uint64_t v : ns)
        sum += v;
    return sum;
}

void
HookTally::merge(const HookTally &other)
{
    for (std::size_t i = 0; i < kHookCount; ++i) {
        ns[i] += other.ns[i];
        calls[i] += other.calls[i];
    }
    readHitClean += other.readHitClean;
}

namespace
{

/** Adds the enclosing scope's duration to one hook's tally. */
class HookSpan
{
  public:
    HookSpan(HookTally &tally, Hook hook)
        : tally(tally), idx(std::size_t(hook)), t0(Clock::now())
    {
    }

    ~HookSpan()
    {
        tally.ns[idx] += nsBetween(t0, Clock::now());
        ++tally.calls[idx];
    }

  private:
    HookTally &tally;
    std::size_t idx;
    Clock::time_point t0;
};

} // namespace

std::string
TimedProtection::name() const
{
    return inner.name();
}

void
TimedProtection::attach(killi::L2Backdoor &backdoor,
                        const killi::CacheGeometry &geom)
{
    ProtectionScheme::attach(backdoor, geom);
    inner.attach(backdoor, geom);
}

void
TimedProtection::reset()
{
    HookSpan span(t, Hook::Other);
    inner.reset();
}

bool
TimedProtection::canAllocate(std::size_t lineId) const
{
    HookSpan span(t, Hook::Alloc);
    return inner.canAllocate(lineId);
}

int
TimedProtection::allocPriority(std::size_t lineId) const
{
    HookSpan span(t, Hook::Alloc);
    return inner.allocPriority(lineId);
}

Cycle
TimedProtection::onFill(std::size_t lineId, const BitVec &data)
{
    HookSpan span(t, Hook::Fill);
    return inner.onFill(lineId, data);
}

void
TimedProtection::onWriteHit(std::size_t lineId, const BitVec &data)
{
    HookSpan span(t, Hook::WriteHit);
    inner.onWriteHit(lineId, data);
}

killi::WritebackOutcome
TimedProtection::onWriteback(std::size_t lineId, const BitVec &data)
{
    HookSpan span(t, Hook::Writeback);
    return inner.onWriteback(lineId, data);
}

AccessResult
TimedProtection::onReadHit(std::size_t lineId, const BitVec &data)
{
    HookSpan span(t, Hook::ReadHit);
    const AccessResult res = inner.onReadHit(lineId, data);
    if (!res.errorInducedMiss && !res.sdc)
        ++t.readHitClean;
    return res;
}

Cycle
TimedProtection::onEvict(std::size_t lineId, const BitVec &data)
{
    HookSpan span(t, Hook::Evict);
    return inner.onEvict(lineId, data);
}

void
TimedProtection::onInvalidate(std::size_t lineId)
{
    HookSpan span(t, Hook::Other);
    inner.onInvalidate(lineId);
}

void
TimedProtection::onTouch(std::size_t lineId)
{
    HookSpan span(t, Hook::Other);
    inner.onTouch(lineId);
}

void
TimedProtection::onMaintenance()
{
    HookSpan span(t, Hook::Other);
    inner.onMaintenance();
}

std::size_t
TimedProtection::usableLines() const
{
    return inner.usableLines();
}

void
TimedProtection::setTrace(killi::TraceSink *sink)
{
    ProtectionScheme::setTrace(sink);
    inner.setTrace(sink);
}

void
TimedProtection::addTimeseriesSources(killi::StatTimeseries &ts)
{
    inner.addTimeseriesSources(ts);
}

TimedWorkload::TimedWorkload(const killi::Workload &inner)
    : Workload(inner.name(), inner.memoryBound(),
               inner.wavefrontsPerCu(), inner.opsPerWavefront(), 0),
      inner(inner)
{
}

std::uint64_t
TimedWorkload::opsFor(unsigned cu, unsigned wf) const
{
    return inner.opsFor(cu, wf);
}

killi::MemOp
TimedWorkload::op(unsigned cu, unsigned wf, std::uint64_t idx) const
{
    const Clock::time_point t0 = Clock::now();
    const killi::MemOp m = inner.op(cu, wf, idx);
    ns += nsBetween(t0, Clock::now());
    ++calls;
    return m;
}

} // namespace perfbench
