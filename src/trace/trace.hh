/**
 * @file
 * Structured event tracing for the simulator (the "ktrace" layer).
 *
 * Design goals, in priority order:
 *  1. Near-zero cost when off. Call sites go through the KTRACE()
 *     macro, which compiles away entirely for categories excluded by
 *     the compile-time mask (KILLI_TRACE_CATEGORIES) and otherwise
 *     costs one null check plus one mask test when runtime tracing
 *     is disabled.
 *  2. One owner, no locks. A TraceSink is one ring buffer owned by
 *     the thread that constructed it: only that thread may record(),
 *     and a record() from any other thread panics rather than race.
 *     Every sink in the program is built and filled by one thread (a
 *     sweep point, a kcheck scenario), so parallel campaigns give
 *     each point its own sink and never share one. The snapshot APIs
 *     (events(), recorded(), dropped(), retained(), the serializers)
 *     read the ring without synchronization; call them from the
 *     owner, or after the owner has finished recording and handed
 *     the sink over through a synchronizing join.
 *  3. Bounded memory. The ring wraps: the newest events win, and the
 *     number of overwritten events is reported (dropped()).
 *  4. Standard outputs. Events serialize as Chrome trace_event JSON
 *     loadable in Perfetto (ui.perfetto.dev) or chrome://tracing,
 *     and as a plain JSON array of event objects.
 *
 * Event payloads are small fixed arrays of typed key/value
 * arguments. Keys, names, and string values must be string literals
 * (or otherwise have static storage duration): the sink stores the
 * pointers, not copies.
 */

#ifndef KILLI_TRACE_TRACE_HH
#define KILLI_TRACE_TRACE_HH

#include <cstdint>
#include <initializer_list>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/json.hh"
#include "common/types.hh"

namespace killi
{

/** Trace categories (bitmask); their names are kTraceCatNames below.
 *  Bit 6 is unused: Check stays at bit 7 and "all" stays 0xff, so the
 *  trace mask that recordings store does not move. */
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

/** One name the --trace grammar accepts and the bits it selects. */
struct TraceCatName
{
    std::string_view name;
    std::uint32_t bits;
};

/**
 * The one category name table: traceCatName(), traceMaskFromList()
 * and parseTraceCats()' list of known names all read it. The
 * single-category names come first; the aliases after them select
 * several categories (or none).
 */
inline constexpr TraceCatName kTraceCatNames[] = {
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

/** Short name of a single category ("dfh", "ecc", ...). */
constexpr const char *
traceCatName(TraceCat cat)
{
    for (const TraceCatName &entry : kTraceCatNames) {
        if (entry.bits == std::uint32_t(cat))
            return entry.name.data();
    }
    return "?";
}

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
    std::uint32_t mask = 0;
    std::size_t pos = 0;
    while (pos <= list.size()) {
        const std::size_t comma = list.find(',', pos);
        const std::size_t end =
            comma == std::string_view::npos ? list.size() : comma;
        const std::string_view token = list.substr(pos, end - pos);
        if (!token.empty()) {
            bool found = false;
            for (const TraceCatName &entry : kTraceCatNames) {
                if (token == entry.name) {
                    mask |= entry.bits;
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
    TraceCat cat = TraceCat::Sim;
    const char *name = "";
    unsigned nargs = 0;
    TraceArg args[kMaxArgs];

    /** {"t":..,"cat":..,"name":..,"tid":0,"args":{..}} */
    Json toJson() const;
    /** Chrome trace_event instant-event object (on tid 0). */
    Json toChromeJson() const;
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
    /** Binds the sink to the calling thread (design note 2).
     *  @param ringCapacity ring size in events. */
    explicit TraceSink(std::size_t ringCapacity = 1 << 16);

    TraceSink(const TraceSink &) = delete;
    TraceSink &operator=(const TraceSink &) = delete;

    /** Runtime category mask (categories stripped at compile time
     *  stay off regardless). */
    void setMask(std::uint32_t mask) { runtimeMask = mask; }

    bool
    enabled(TraceCat cat) const
    {
        return (runtimeMask & std::uint32_t(cat)) != 0;
    }

    /** Record one event (hot path); panics unless called on the
     *  owning thread. Prefer the KTRACE() macro. */
    void record(Tick tick, TraceCat cat, const char *name,
                std::initializer_list<TraceArg> args);

    /** Total record() calls, including later-overwritten events. */
    std::uint64_t recorded() const { return written; }
    /** Events lost to ring wraparound. */
    std::uint64_t dropped() const { return written - ring.size(); }
    /** Events currently retained. */
    std::uint64_t retained() const { return ring.size(); }

    /** The retained events, oldest first, stable-sorted by tick. */
    std::vector<TraceEvent> events() const;

    /** Array of TraceEvent::toJson() objects, in events() order. */
    Json toJson() const;
    /** {"traceEvents":[...]} — loadable in Perfetto. */
    Json chromeTraceJson() const;

  private:
    const std::thread::id owner;
    const std::size_t capacity;
    std::uint32_t runtimeMask = kAllTraceCats;
    /** One-shot latch for the first-drop warn(). */
    bool dropWarned = false;
    std::uint64_t written = 0; //!< total records into the ring
    /** Fills to capacity in record order, then wraps: the oldest
     *  event sits at written % capacity. */
    std::vector<TraceEvent> ring;
};

/**
 * The hot-path macro: compiles to nothing for categories outside
 * KILLI_TRACE_CATEGORIES; otherwise a null check plus a mask test
 * before the record() call.
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
