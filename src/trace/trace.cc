#include "trace/trace.hh"

#include <algorithm>
#include <atomic>
#include <cstring>

#include "common/log.hh"
#include "common/replay_probe.hh"

namespace killi
{

namespace
{

/** FNV-1a over arbitrary bytes (trace-record digests for replay). */
std::uint64_t
fnv1a(std::uint64_t hash, const void *data, std::size_t len)
{
    const auto *bytes = static_cast<const unsigned char *>(data);
    for (std::size_t i = 0; i < len; ++i) {
        hash ^= bytes[i];
        hash *= 0x100000001b3ULL;
    }
    return hash;
}

/**
 * Fold one trace record — name, category, and every argument's key,
 * kind, and raw value bits — into a 64-bit digest for the replay
 * probe. TraceArg cannot cross into common/replay_probe.hh (trace
 * depends on common, not vice versa), so the fold happens here and
 * only the digest travels.
 */
std::uint64_t
traceRecordDigest(TraceCat cat, const char *name,
                  const std::initializer_list<TraceArg> &args)
{
    std::uint64_t hash = 0xcbf29ce484222325ULL;
    const std::uint32_t catBits = std::uint32_t(cat);
    hash = fnv1a(hash, &catBits, sizeof(catBits));
    hash = fnv1a(hash, name, std::strlen(name));
    for (const TraceArg &arg : args) {
        hash = fnv1a(hash, arg.key, std::strlen(arg.key));
        const auto kind = std::uint8_t(arg.kind);
        hash = fnv1a(hash, &kind, sizeof(kind));
        switch (arg.kind) {
          case TraceArg::Kind::U64:
            hash = fnv1a(hash, &arg.u, sizeof(arg.u));
            break;
          case TraceArg::Kind::I64:
            hash = fnv1a(hash, &arg.i, sizeof(arg.i));
            break;
          case TraceArg::Kind::F64:
            hash = fnv1a(hash, &arg.f, sizeof(arg.f));
            break;
          case TraceArg::Kind::Bool:
            hash = fnv1a(hash, &arg.b, sizeof(arg.b));
            break;
          case TraceArg::Kind::Str:
            if (arg.s)
                hash = fnv1a(hash, arg.s, std::strlen(arg.s));
            break;
        }
    }
    return hash;
}

/** Process-wide wraparound losses across every sink; see
 *  traceDroppedRecordsTotal(). */
std::atomic<std::uint64_t> gDroppedRecords{0};

} // namespace

bool
parseTraceCats(const std::string &list, std::uint32_t &mask,
               std::string *err)
{
    const std::uint32_t parsed = traceMaskFromList(list);
    if (parsed == kBadTraceMask) {
        if (err) {
            *err = "unknown trace category in '" + list + "' (known: ";
            for (const TraceCatName &entry : kTraceCatNames) {
                if (&entry != kTraceCatNames)
                    *err += ',';
                *err += entry.name;
            }
            *err += ')';
        }
        return false;
    }
    mask = parsed;
    return true;
}

Json
TraceArg::valueJson() const
{
    switch (kind) {
      case Kind::U64: return Json::number(u);
      case Kind::I64: return Json::number(i);
      case Kind::F64: return Json::number(f);
      case Kind::Bool: return Json::boolean(b);
      case Kind::Str: return Json::string(s ? s : "");
    }
    return Json::null();
}

Json
TraceEvent::toJson() const
{
    Json doc = Json::object();
    doc.set("t", Json::number(std::uint64_t(tick)));
    doc.set("cat", Json::string(traceCatName(cat)));
    doc.set("name", Json::string(name));
    doc.set("tid", Json::number(std::uint64_t(0)));
    if (nargs) {
        Json argObj = Json::object();
        for (unsigned a = 0; a < nargs; ++a)
            argObj.set(args[a].key, args[a].valueJson());
        doc.set("args", std::move(argObj));
    }
    return doc;
}

Json
TraceEvent::toChromeJson() const
{
    // Instant event ("ph":"i", thread scope). ts is nominally in
    // microseconds; we map 1 cycle -> 1 us, which Perfetto renders
    // fine (times read as cycles).
    Json doc = Json::object();
    doc.set("name", Json::string(name));
    doc.set("cat", Json::string(traceCatName(cat)));
    doc.set("ph", Json::string("i"));
    doc.set("s", Json::string("t"));
    doc.set("ts", Json::number(std::uint64_t(tick)));
    doc.set("pid", Json::number(std::int64_t(0)));
    doc.set("tid", Json::number(std::uint64_t(0)));
    Json argObj = Json::object();
    for (unsigned a = 0; a < nargs; ++a)
        argObj.set(args[a].key, args[a].valueJson());
    doc.set("args", std::move(argObj));
    return doc;
}

TraceSink::TraceSink(std::size_t ringCapacity)
    : owner(std::this_thread::get_id()),
      capacity(ringCapacity ? ringCapacity : 1)
{
}

void
TraceSink::record(Tick tick, TraceCat cat, const char *name,
                  std::initializer_list<TraceArg> args)
{
    if (std::this_thread::get_id() != owner) [[unlikely]]
        panic("ktrace: record('%s') from a thread that does not own "
              "the sink; a TraceSink takes records only from the "
              "thread that constructed it",
              name);
    if (ReplayProbe *probe = replayProbe()) [[unlikely]] {
        probe->onTraceRecord(tick, std::uint32_t(cat), name,
                             traceRecordDigest(cat, name, args));
    }
    TraceEvent ev;
    ev.tick = tick;
    ev.cat = cat;
    ev.name = name;
    for (const TraceArg &arg : args) {
        if (ev.nargs == TraceEvent::kMaxArgs)
            break;
        ev.args[ev.nargs++] = arg;
    }
    if (ring.size() < capacity) {
        ring.push_back(ev);
    } else {
        // Wraparound: the overwritten slot's event is lost.
        gDroppedRecords.fetch_add(1, std::memory_order_relaxed);
        if (!dropWarned) {
            dropWarned = true;
            warn("ktrace: ring buffer full (capacity %zu); oldest "
                 "events are being dropped — see "
                 "TraceSink::dropped() / ktrace_dropped_records_total "
                 "for counts",
                 capacity);
        }
        ring[written % capacity] = ev;
    }
    ++written;
}

std::uint64_t
traceDroppedRecordsTotal()
{
    return gDroppedRecords.load(std::memory_order_relaxed);
}

std::vector<TraceEvent>
TraceSink::events() const
{
    // Unwrap the ring oldest-first (a wrapped ring's oldest event
    // sits at written % capacity); that is record order, so a stable
    // sort by tick keeps record order among same-tick events.
    std::vector<TraceEvent> out;
    out.reserve(ring.size());
    const std::size_t start =
        written > ring.size() ? written % capacity : 0;
    out.insert(out.end(), ring.begin() + start, ring.end());
    out.insert(out.end(), ring.begin(), ring.begin() + start);
    std::stable_sort(out.begin(), out.end(),
                     [](const TraceEvent &a, const TraceEvent &b) {
                         return a.tick < b.tick;
                     });
    return out;
}

Json
TraceSink::toJson() const
{
    Json arr = Json::array();
    for (const TraceEvent &ev : events())
        arr.push(ev.toJson());
    return arr;
}

Json
TraceSink::chromeTraceJson() const
{
    Json evArr = Json::array();
    for (const TraceEvent &ev : events())
        evArr.push(ev.toChromeJson());
    Json doc = Json::object();
    doc.set("traceEvents", std::move(evArr));
    doc.set("displayTimeUnit", Json::string("ms"));
    Json meta = Json::object();
    meta.set("recorded", Json::number(recorded()));
    meta.set("dropped", Json::number(dropped()));
    doc.set("otherData", std::move(meta));
    return doc;
}

} // namespace killi
