/**
 * @file
 * Thread-local observation points for deterministic record-replay.
 *
 * A ReplayProbe sees every nondeterministic input of a run as it
 * happens: RNG draws (Rng::next64), event-queue pop decisions
 * (EventQueue::run), and trace records (TraceSink::record, folded to
 * a 64-bit digest so the probe interface stays free of trace types).
 * The recorder (src/replay) installs a probe to capture a run; the
 * replayer installs one to verify — or override — the same inputs on
 * a later run.
 *
 * The probe is *thread-local* by design: a sweep campaign at jobs=1
 * executes entirely on the calling thread (see runner.hh), so a
 * probe installed around runEvaluationSweep()/runScenario() scopes
 * capture to exactly one run — even inside the concurrent kserved
 * daemon, where unrelated jobs on other workers proceed unprobed and
 * unsynchronized. When no probe is installed the hooks cost one
 * thread-local load and a predictable branch.
 *
 * The one run-mode knob a recording carries, the perturb-decode
 * countdown, lives here for the same reason: armed on the thread
 * that runs the recorded or replayed sweep, it fires inside that run
 * and nowhere else.
 */

#ifndef KILLI_COMMON_REPLAY_PROBE_HH
#define KILLI_COMMON_REPLAY_PROBE_HH

#include <cstdint>

#include "common/types.hh"

namespace killi
{

class ReplayProbe
{
  public:
    virtual ~ReplayProbe() = default;

    /**
     * Called by Rng::next64() with the freshly generated value.
     * Returns the value the caller must use: a recorder returns
     * @p value unchanged after logging it; an injecting replayer
     * returns the recorded value instead. The current stream label
     * (rngStreamLabel()) identifies which subsystem is drawing.
     */
    virtual std::uint64_t filterRngDraw(std::uint64_t value) = 0;

    /** Called by EventQueue::run() for every popped event, in
     *  execution order, before the callback runs. */
    virtual void onEventPop(Tick when, int priority,
                            std::uint64_t seq) = 0;

    /**
     * Called by TraceSink::record() for every accepted trace event.
     * @p argDigest folds the event name, category, and argument
     * values into one 64-bit FNV-1a digest (see trace.cc), so two
     * runs agree on a record iff the digests match.
     */
    virtual void onTraceRecord(Tick tick, std::uint32_t cat,
                               const char *name,
                               std::uint64_t argDigest) = 0;
};

namespace detail
{
// Constant-initialized inline definitions: every use sees the
// initializer, so accesses are direct TLS loads and stores. (An
// extern declaration with an out-of-line definition goes through a
// TLS wrapper call instead, which GCC 12's UBSan null check flags
// as a store to a null pointer.)
inline thread_local constinit ReplayProbe *tlsReplayProbe = nullptr;
inline thread_local constinit const char *tlsRngStream = "?";
inline thread_local constinit std::uint64_t tlsPerturbDecode = 0;
} // namespace detail

/** The probe installed on this thread (nullptr when none). */
inline ReplayProbe *
replayProbe()
{
    return detail::tlsReplayProbe;
}

/** Install @p probe on this thread (nullptr uninstalls). */
inline void
setReplayProbe(ReplayProbe *probe)
{
    detail::tlsReplayProbe = probe;
}

/** RAII probe installation around one run. */
class ScopedReplayProbe
{
  public:
    explicit ScopedReplayProbe(ReplayProbe *probe)
        : previous(detail::tlsReplayProbe)
    {
        detail::tlsReplayProbe = probe;
    }
    ~ScopedReplayProbe() { detail::tlsReplayProbe = previous; }

    ScopedReplayProbe(const ScopedReplayProbe &) = delete;
    ScopedReplayProbe &operator=(const ScopedReplayProbe &) = delete;

  private:
    ReplayProbe *previous;
};

/** The label of the RNG stream currently drawing on this thread
 *  ("?" when no RngStreamScope is active). */
inline const char *
rngStreamLabel()
{
    return detail::tlsRngStream;
}

/**
 * Labels the RNG draws of a lexical region ("faultmap",
 * "kcheck.gen", "transient", ...) so a recorded draw — and any
 * divergence on it — names the subsystem that consumed it. Purely
 * diagnostic: labels never influence the values drawn.
 */
class RngStreamScope
{
  public:
    explicit RngStreamScope(const char *label)
        : previous(detail::tlsRngStream)
    {
        detail::tlsRngStream = label;
    }
    ~RngStreamScope() { detail::tlsRngStream = previous; }

    RngStreamScope(const RngStreamScope &) = delete;
    RngStreamScope &operator=(const RngStreamScope &) = delete;

  private:
    const char *previous;
};

/**
 * Count down one SECDED syndrome evaluation against the armed
 * perturb-decode countdown (see ScopedPerturbDecode); true exactly
 * on the Nth evaluation since arming. While disarmed this is one
 * thread-local load and a never-taken branch.
 */
inline bool
perturbDecodeFires()
{
    std::uint64_t &countdown = detail::tlsPerturbDecode;
    return countdown != 0 && --countdown == 0;
}

/**
 * Arms a one-shot decode perturbation on this thread for one run:
 * the @p nth SECDED syndrome evaluation after construction — a
 * sliced decode() or an omniscient probe(), whichever the running
 * code path reaches — XORs bit 0 into its syndrome (0 disarms).
 * Test/CI-only fault injection for the record-replay bisector: two
 * otherwise identical runs, one armed, diverge at an exactly known
 * decode, and `krr bisect` must find it.
 */
class ScopedPerturbDecode
{
  public:
    explicit ScopedPerturbDecode(std::uint64_t nth)
        : previous(detail::tlsPerturbDecode)
    {
        detail::tlsPerturbDecode = nth;
    }
    ~ScopedPerturbDecode() { detail::tlsPerturbDecode = previous; }

    ScopedPerturbDecode(const ScopedPerturbDecode &) = delete;
    ScopedPerturbDecode &
    operator=(const ScopedPerturbDecode &) = delete;

  private:
    std::uint64_t previous;
};

} // namespace killi

#endif // KILLI_COMMON_REPLAY_PROBE_HH
