/**
 * @file
 * Forwarding decorators that time calls into the simulator's
 * pluggable layers from outside: TimedProtection wraps any
 * ProtectionScheme (the killi / baselines hooks the L2 drives) and
 * TimedWorkload wraps any Workload (the per-op traffic generator the
 * compute units pull from). Both forward every virtual member
 * unchanged, so a decorated sweep point produces the same RunResult
 * as an undecorated one; the traced fig4 run checks exactly that.
 *
 * Each decorator is confined to the thread running its point, like
 * the objects it wraps (gpu_system.hh thread-confinement contract).
 */

#ifndef PERFBENCH_DECORATORS_HH
#define PERFBENCH_DECORATORS_HH

#include <array>
#include <cstdint>

#include "cache/protection.hh"
#include "gpu/workload.hh"

namespace perfbench
{

/** Protection hooks, grouped the way the per-layer metrics are. */
enum class Hook : unsigned
{
    ReadHit,
    Fill,
    Evict,
    WriteHit,
    Writeback,
    Alloc, //!< canAllocate + allocPriority
    Other, //!< invalidate, touch, maintenance, reset
    Count
};

inline constexpr std::size_t kHookCount = std::size_t(Hook::Count);

/** Metric-name stem of @p hook ("read_hit", ...). */
const char *hookName(Hook hook);

/** Host time and call counts per hook. */
struct HookTally
{
    std::array<std::uint64_t, kHookCount> ns{};
    std::array<std::uint64_t, kHookCount> calls{};
    /** Read hits that delivered data (no error-induced miss, no SDC). */
    std::uint64_t readHitClean = 0;

    std::uint64_t totalNs() const;
    void merge(const HookTally &other);
};

class TimedProtection final : public killi::ProtectionScheme
{
  public:
    explicit TimedProtection(killi::ProtectionScheme &inner)
        : inner(inner)
    {
    }

    const HookTally &tally() const { return t; }

    std::string name() const override;
    void attach(killi::L2Backdoor &backdoor,
                const killi::CacheGeometry &geom) override;
    void reset() override;
    bool canAllocate(std::size_t lineId) const override;
    int allocPriority(std::size_t lineId) const override;
    killi::Cycle onFill(std::size_t lineId,
                        const killi::BitVec &data) override;
    void onWriteHit(std::size_t lineId,
                    const killi::BitVec &data) override;
    killi::WritebackOutcome
    onWriteback(std::size_t lineId, const killi::BitVec &data) override;
    killi::AccessResult
    onReadHit(std::size_t lineId, const killi::BitVec &data) override;
    killi::Cycle onEvict(std::size_t lineId,
                         const killi::BitVec &data) override;
    void onInvalidate(std::size_t lineId) override;
    void onTouch(std::size_t lineId) override;
    void onMaintenance() override;
    std::size_t usableLines() const override;
    void setTrace(killi::TraceSink *sink) override;
    void addTimeseriesSources(killi::StatTimeseries &ts) override;

  private:
    killi::ProtectionScheme &inner;
    /** Mutable: the const hooks (canAllocate, allocPriority) are
     *  timed too. */
    mutable HookTally t;
};

class TimedWorkload final : public killi::Workload
{
  public:
    explicit TimedWorkload(const killi::Workload &inner);

    std::uint64_t opNs() const { return ns; }
    std::uint64_t opCalls() const { return calls; }

    std::uint64_t opsFor(unsigned cu, unsigned wf) const override;
    killi::MemOp op(unsigned cu, unsigned wf,
                    std::uint64_t idx) const override;

  private:
    const killi::Workload &inner;
    mutable std::uint64_t ns = 0;
    mutable std::uint64_t calls = 0;
};

} // namespace perfbench

#endif // PERFBENCH_DECORATORS_HH
