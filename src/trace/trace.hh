/**
 * @file
 * Structured event tracing for the simulator (the "ktrace" layer).
 *
 * Design goals, in priority order:
 *  1. Near-zero cost when off. Call sites go through the KTRACE()
 *     macro, which compiles away entirely for categories excluded by
 *     the compile-time mask (KILLI_TRACE_CATEGORIES) and otherwise
 *     costs one null check plus one relaxed atomic load when runtime
 *     tracing is disabled.
 *  2. Thread safety without hot-path locks. A TraceSink keeps one
 *     ring buffer per recording thread; record() touches only the
 *     calling thread's ring (registration of a new thread takes the
 *     sink mutex once), so concurrent record() calls from any number
 *     of threads never contend or race. The snapshot/reset APIs
 *     (events(), recorded(), dropped(), retained(), clear(), the
 *     serializers) are NOT synchronized against in-flight record()
 *     calls: callers must quiesce recording first. The simulator
 *     honors this — each GpuSystem records from its own thread and
 *     traces are only read/cleared after the run completes.
 *  3. Bounded memory. Rings wrap: the newest events win, and the
 *     number of overwritten events is reported (dropped()).
 *  4. Standard outputs. Events serialize as JSONL (one object per
 *     line, for grep/jq) and as Chrome trace_event JSON loadable in
 *     Perfetto (ui.perfetto.dev) or chrome://tracing.
 *
 * Event payloads are small fixed arrays of typed key/value
 * arguments. Keys, names, and string values must be string literals
 * (or otherwise have static storage duration): the sink stores the
 * pointers, not copies.
 */

#ifndef KILLI_TRACE_TRACE_HH
#define KILLI_TRACE_TRACE_HH

#include <array>
#include <atomic>
#include <cstdint>
#include <deque>
#include <initializer_list>
#include <mutex>
#include <ostream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/json.hh"
#include "common/types.hh"

namespace killi
{

/** Trace categories (bitmask). Kept in sync with traceCatName() in
 *  trace.cc and the name table of traceMaskFromList() below. Bit 6
 *  is unused: Check stays at bit 7 and "all" stays 0xff, so the trace
 *  mask that recordings store does not move. */
enum class TraceCat : std::uint32_t
{
    Sim = 1u << 0,   //!< event-queue activity (schedule, periodic)
    L2 = 1u << 1,    //!< L2 accesses, misses, fills, evictions
    Dfh = 1u << 2,   //!< DFH lifecycle transitions
    Ecc = 1u << 3,   //!< ECC-cache install/evict/contention
    Error = 1u << 4, //!< detections, corrections, SDC, soft errors
    Gpu = 1u << 5,   //!< CU / system-level milestones
    Check = 1u << 7, //!< kcheck harness markers
};

constexpr std::uint32_t kAllTraceCats = (1u << 8) - 1;

constexpr std::uint32_t
operator|(TraceCat a, TraceCat b)
{
    return std::uint32_t(a) | std::uint32_t(b);
}

/** Short name of a single category ("dfh", "ecc", ...). */
const char *traceCatName(TraceCat cat);

/**
 * Parse a comma-separated category list ("dfh,ecc,l2"); "all" (or
 * "*") selects every category, "" and "none" select nothing.
 * constexpr so the compile-time mask below is derived from the same
 * grammar the --trace flag uses. Returns kBadTraceMask on an unknown
 * name.
 */
constexpr std::uint32_t kBadTraceMask = ~std::uint32_t{0};

constexpr std::uint32_t
traceMaskFromList(std::string_view list)
{
    // Keep in sync with traceCatName(); constexpr forbids reusing the
    // runtime table directly in C++20 without extra machinery.
    constexpr std::pair<std::string_view, std::uint32_t> names[] = {
        {"sim", std::uint32_t(TraceCat::Sim)},
        {"l2", std::uint32_t(TraceCat::L2)},
        {"dfh", std::uint32_t(TraceCat::Dfh)},
        {"ecc", std::uint32_t(TraceCat::Ecc)},
        {"error", std::uint32_t(TraceCat::Error)},
        {"gpu", std::uint32_t(TraceCat::Gpu)},
        {"check", std::uint32_t(TraceCat::Check)},
        {"all", kAllTraceCats},
        {"*", kAllTraceCats},
        {"none", 0},
    };
    std::uint32_t mask = 0;
    std::size_t pos = 0;
    while (pos <= list.size()) {
        const std::size_t comma = list.find(',', pos);
        const std::size_t end =
            comma == std::string_view::npos ? list.size() : comma;
        const std::string_view token = list.substr(pos, end - pos);
        if (!token.empty()) {
            bool found = false;
            for (const auto &[name, bits] : names) {
                if (token == name) {
                    mask |= bits;
                    found = true;
                    break;
                }
            }
            if (!found)
                return kBadTraceMask;
        }
        if (comma == std::string_view::npos)
            break;
        pos = comma + 1;
    }
    return mask;
}

/** Runtime wrapper with error reporting for the --trace flag. */
bool parseTraceCats(const std::string &list, std::uint32_t &mask,
                    std::string *err = nullptr);

/**
 * Compile-time category mask. Configure with
 * -DKILLI_TRACE_CATEGORIES="dfh,ecc" (CMake option of the same
 * name); categories outside the mask compile to nothing at every
 * KTRACE() site.
 */
#ifndef KILLI_TRACE_CATEGORIES
#define KILLI_TRACE_CATEGORIES "all"
#endif
inline constexpr std::uint32_t kCompiledTraceMask =
    traceMaskFromList(KILLI_TRACE_CATEGORIES);
static_assert(kCompiledTraceMask != kBadTraceMask,
              "KILLI_TRACE_CATEGORIES contains an unknown category");

/** One typed key/value event argument (key must be a literal). */
struct TraceArg
{
    enum class Kind : std::uint8_t
    {
        U64,
        I64,
        F64,
        Bool,
        Str
    };

    constexpr TraceArg() : key(nullptr), kind(Kind::U64), u(0) {}
    constexpr TraceArg(const char *k, std::uint64_t v)
        : key(k), kind(Kind::U64), u(v)
    {
    }
    constexpr TraceArg(const char *k, std::uint32_t v)
        : key(k), kind(Kind::U64), u(v)
    {
    }
    constexpr TraceArg(const char *k, std::int64_t v)
        : key(k), kind(Kind::I64), i(v)
    {
    }
    constexpr TraceArg(const char *k, int v)
        : key(k), kind(Kind::I64), i(v)
    {
    }
    constexpr TraceArg(const char *k, double v)
        : key(k), kind(Kind::F64), f(v)
    {
    }
    constexpr TraceArg(const char *k, bool v)
        : key(k), kind(Kind::Bool), b(v)
    {
    }
    constexpr TraceArg(const char *k, const char *v)
        : key(k), kind(Kind::Str), s(v)
    {
    }

    Json valueJson() const;

    const char *key;
    Kind kind;
    union
    {
        std::uint64_t u;
        std::int64_t i;
        double f;
        bool b;
        const char *s;
    };
};

/** A recorded event. Payload capacity is fixed (kMaxArgs). */
struct TraceEvent
{
    static constexpr std::size_t kMaxArgs = 6;

    Tick tick = 0;
    std::uint64_t seq = 0; //!< sink-wide record order (tie-break)
    TraceCat cat = TraceCat::Sim;
    const char *name = "";
    unsigned tid = 0; //!< recording-thread index within the sink
    unsigned nargs = 0;
    TraceArg args[kMaxArgs];

    /** {"t":..,"cat":..,"name":..,"tid":..,"args":{..}} */
    Json toJson() const;
    /** Chrome trace_event instant-event object. */
    Json toChromeJson() const;
};

/**
 * Point-in-time accounting snapshot of one sink (see
 * TraceSink::stats()). droppedByCat is indexed by category bit
 * position (bit k of the TraceCat mask).
 */
struct TraceSinkStats
{
    std::uint64_t recorded = 0;
    std::uint64_t dropped = 0;
    std::uint64_t retained = 0;
    std::uint64_t threads = 0;
    std::array<std::uint64_t, 8> droppedByCat{};

    /** {"recorded","dropped","retained","threads",
     *   "dropped_by_cat":{<name>:n, ...}} — only categories that
     *  actually dropped appear in dropped_by_cat. */
    Json toJson() const;
};

/**
 * Process-wide total of trace records lost to ring wraparound,
 * summed across every TraceSink that ever existed. Monotone and safe
 * to read concurrently with recording — this is the value kmetrics
 * exposes as ktrace_dropped_records_total.
 */
std::uint64_t traceDroppedRecordsTotal();

class TraceSink
{
  public:
    /** @param capacityPerThread ring size per recording thread. */
    explicit TraceSink(std::size_t capacityPerThread = 1 << 16);

    TraceSink(const TraceSink &) = delete;
    TraceSink &operator=(const TraceSink &) = delete;

    /** Runtime category mask (categories stripped at compile time
     *  stay off regardless). */
    void setMask(std::uint32_t mask);
    std::uint32_t mask() const
    {
        return runtimeMask.load(std::memory_order_relaxed);
    }

    bool
    enabled(TraceCat cat) const
    {
        return (runtimeMask.load(std::memory_order_relaxed) &
                std::uint32_t(cat)) != 0;
    }

    /** Record one event (hot path; lock-free after the calling
     *  thread's first record). Prefer the KTRACE() macro. */
    void record(Tick tick, TraceCat cat, const char *name,
                std::initializer_list<TraceArg> args);

    // The accessors below (and the serializers) require recording to
    // have quiesced: they do not synchronize with in-flight record()
    // calls (see design note 2 above).

    /** Total record() calls, including later-overwritten events. */
    std::uint64_t recorded() const;
    /** Events lost to ring wraparound. */
    std::uint64_t dropped() const;
    /** Events currently retained. */
    std::uint64_t retained() const;
    /** Everything above plus per-category drop counts, in one
     *  snapshot. */
    TraceSinkStats stats() const;

    /** Merged snapshot of every thread's ring, (tick, seq)-ordered. */
    std::vector<TraceEvent> events() const;

    /** Drop all recorded events (rings stay registered; sequence
     *  numbers keep increasing so (tick, seq) order stays unique
     *  across the clear boundary). */
    void clear();

    /** Array of TraceEvent::toJson() objects, (tick, seq)-ordered. */
    Json toJson() const;
    /** {"traceEvents":[...]} — loadable in Perfetto. */
    Json chromeTraceJson() const;

    /** One compact JSON object per line. */
    void writeJsonl(std::ostream &os) const;
    /** Pretty-printed chromeTraceJson(). */
    void writeChromeTrace(std::ostream &os) const;

  private:
    struct Ring
    {
        std::thread::id owner;
        unsigned tid = 0;
        std::uint64_t written = 0; //!< total records into this ring
        /** Overwritten events by category bit position; owner-thread
         *  writes only (same quiesce rule as buf/written). */
        std::array<std::uint64_t, 8> droppedByCat{};
        std::vector<TraceEvent> buf;
    };

    Ring &ringForThisThread();

    const std::uint64_t sinkId;
    const std::size_t capacity;
    std::atomic<std::uint32_t> runtimeMask{kAllTraceCats};
    std::atomic<std::uint64_t> seqCounter{0};
    /** One-shot latch for the first-drop warn(). */
    std::atomic<bool> dropWarned{false};
    mutable std::mutex registry;
    std::deque<Ring> rings; //!< deque: stable addresses on growth
};

/**
 * The hot-path macro: compiles to nothing for categories outside
 * KILLI_TRACE_CATEGORIES; otherwise a null check plus a relaxed mask
 * test before the record() call.
 *
 *     KTRACE(trace, now, TraceCat::Dfh, "dfh.transition",
 *            {"line", lineId}, {"from", dfhCName(from)});
 */
#define KTRACE(sinkPtr, tick, cat, name, ...)                           \
    do {                                                                \
        if constexpr ((::killi::kCompiledTraceMask &                    \
                       std::uint32_t(cat)) != 0) {                      \
            ::killi::TraceSink *ktraceSink_ = (sinkPtr);                \
            if (ktraceSink_ && ktraceSink_->enabled(cat))               \
                ktraceSink_->record((tick), (cat), (name),              \
                                    {__VA_ARGS__});                     \
        }                                                               \
    } while (0)

} // namespace killi

#endif // KILLI_TRACE_TRACE_HH
