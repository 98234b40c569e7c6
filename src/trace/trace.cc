#include "trace/trace.hh"

#include <algorithm>
#include <bit>
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

/** Sink identity generator (thread-local cache invalidation). */
std::atomic<std::uint64_t> gSinkIds{1};

/** Process-wide wraparound losses across every sink; see
 *  traceDroppedRecordsTotal(). */
std::atomic<std::uint64_t> gDroppedRecords{0};

/** One-slot per-thread cache: the ring this thread last recorded
 *  into, keyed by sink identity. The common case — one sink per
 *  thread — never takes the registry mutex after the first event. */
struct TlsRingSlot
{
    std::uint64_t sinkId = 0;
    void *ring = nullptr;
};
thread_local TlsRingSlot tlsRing;

} // namespace

const char *
traceCatName(TraceCat cat)
{
    switch (cat) {
      case TraceCat::Sim: return "sim";
      case TraceCat::L2: return "l2";
      case TraceCat::Dfh: return "dfh";
      case TraceCat::Ecc: return "ecc";
      case TraceCat::Error: return "error";
      case TraceCat::Gpu: return "gpu";
      case TraceCat::Check: return "check";
    }
    return "?";
}

bool
parseTraceCats(const std::string &list, std::uint32_t &mask,
               std::string *err)
{
    const std::uint32_t parsed = traceMaskFromList(list);
    if (parsed == kBadTraceMask) {
        if (err) {
            *err = "unknown trace category in '" + list +
                   "' (known: sim,l2,dfh,ecc,error,gpu,check,all,"
                   "none)";
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
    doc.set("tid", Json::number(std::uint64_t(tid)));
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
    doc.set("tid", Json::number(std::uint64_t(tid)));
    Json argObj = Json::object();
    for (unsigned a = 0; a < nargs; ++a)
        argObj.set(args[a].key, args[a].valueJson());
    doc.set("args", std::move(argObj));
    return doc;
}

TraceSink::TraceSink(std::size_t capacityPerThread)
    : sinkId(gSinkIds.fetch_add(1, std::memory_order_relaxed)),
      capacity(capacityPerThread ? capacityPerThread : 1)
{
}

void
TraceSink::setMask(std::uint32_t mask)
{
    runtimeMask.store(mask, std::memory_order_relaxed);
}

TraceSink::Ring &
TraceSink::ringForThisThread()
{
    if (tlsRing.sinkId == sinkId)
        return *static_cast<Ring *>(tlsRing.ring);

    std::lock_guard<std::mutex> lock(registry);
    const std::thread::id self = std::this_thread::get_id();
    Ring *mine = nullptr;
    for (Ring &ring : rings) {
        if (ring.owner == self) {
            mine = &ring;
            break;
        }
    }
    if (!mine) {
        rings.push_back(Ring{});
        mine = &rings.back();
        mine->owner = self;
        mine->tid = unsigned(rings.size() - 1);
        mine->buf.reserve(std::min<std::size_t>(capacity, 1024));
    }
    tlsRing = {sinkId, mine};
    return *mine;
}

void
TraceSink::record(Tick tick, TraceCat cat, const char *name,
                  std::initializer_list<TraceArg> args)
{
    if (ReplayProbe *probe = replayProbe()) [[unlikely]] {
        probe->onTraceRecord(tick, std::uint32_t(cat), name,
                             traceRecordDigest(cat, name, args));
    }
    Ring &ring = ringForThisThread();
    TraceEvent ev;
    ev.tick = tick;
    ev.seq = seqCounter.fetch_add(1, std::memory_order_relaxed);
    ev.cat = cat;
    ev.name = name;
    ev.tid = ring.tid;
    for (const TraceArg &arg : args) {
        if (ev.nargs == TraceEvent::kMaxArgs)
            break;
        ev.args[ev.nargs++] = arg;
    }
    if (ring.buf.size() < capacity) {
        ring.buf.push_back(ev);
    } else {
        // Wraparound: the overwritten slot's event is lost. Account
        // the loss by the *overwritten* event's category — that is
        // the record that no longer exists.
        const TraceEvent &victim = ring.buf[ring.written % capacity];
        const auto catBits = std::uint32_t(victim.cat);
        ring.droppedByCat[std::countr_zero(catBits) & 7]++;
        gDroppedRecords.fetch_add(1, std::memory_order_relaxed);
        if (!dropWarned.load(std::memory_order_relaxed) &&
            !dropWarned.exchange(true, std::memory_order_relaxed)) {
            warn("ktrace: ring buffer full (capacity %zu/thread); "
                 "oldest events are being dropped — see "
                 "TraceSink::stats() / ktrace_dropped_records_total "
                 "for counts",
                 capacity);
        }
        ring.buf[ring.written % capacity] = ev;
    }
    ++ring.written;
}

std::uint64_t
TraceSink::recorded() const
{
    std::lock_guard<std::mutex> lock(registry);
    std::uint64_t total = 0;
    for (const Ring &ring : rings)
        total += ring.written;
    return total;
}

std::uint64_t
TraceSink::dropped() const
{
    std::lock_guard<std::mutex> lock(registry);
    std::uint64_t lost = 0;
    for (const Ring &ring : rings) {
        if (ring.written > ring.buf.size())
            lost += ring.written - ring.buf.size();
    }
    return lost;
}

std::uint64_t
TraceSink::retained() const
{
    std::lock_guard<std::mutex> lock(registry);
    std::uint64_t kept = 0;
    for (const Ring &ring : rings)
        kept += ring.buf.size();
    return kept;
}

TraceSinkStats
TraceSink::stats() const
{
    std::lock_guard<std::mutex> lock(registry);
    TraceSinkStats out;
    out.threads = rings.size();
    for (const Ring &ring : rings) {
        out.recorded += ring.written;
        out.retained += ring.buf.size();
        if (ring.written > ring.buf.size())
            out.dropped += ring.written - ring.buf.size();
        for (std::size_t k = 0; k < out.droppedByCat.size(); ++k)
            out.droppedByCat[k] += ring.droppedByCat[k];
    }
    return out;
}

Json
TraceSinkStats::toJson() const
{
    Json doc = Json::object();
    doc.set("recorded", Json::number(recorded));
    doc.set("dropped", Json::number(dropped));
    doc.set("retained", Json::number(retained));
    doc.set("threads", Json::number(threads));
    Json byCat = Json::object();
    for (std::size_t k = 0; k < droppedByCat.size(); ++k) {
        if (droppedByCat[k]) {
            byCat.set(traceCatName(TraceCat(1u << k)),
                      Json::number(droppedByCat[k]));
        }
    }
    doc.set("dropped_by_cat", std::move(byCat));
    return doc;
}

std::uint64_t
traceDroppedRecordsTotal()
{
    return gDroppedRecords.load(std::memory_order_relaxed);
}

std::vector<TraceEvent>
TraceSink::events() const
{
    std::vector<TraceEvent> out;
    {
        std::lock_guard<std::mutex> lock(registry);
        for (const Ring &ring : rings) {
            // Oldest-first within the ring: a wrapped ring's oldest
            // element sits at written % capacity.
            const std::size_t n = ring.buf.size();
            const std::size_t start =
                ring.written > n ? ring.written % capacity : 0;
            for (std::size_t k = 0; k < n; ++k)
                out.push_back(ring.buf[(start + k) % n]);
        }
    }
    std::sort(out.begin(), out.end(),
              [](const TraceEvent &a, const TraceEvent &b) {
                  if (a.tick != b.tick)
                      return a.tick < b.tick;
                  return a.seq < b.seq;
              });
    return out;
}

void
TraceSink::clear()
{
    std::lock_guard<std::mutex> lock(registry);
    for (Ring &ring : rings) {
        ring.buf.clear();
        ring.written = 0;
        ring.droppedByCat = {};
    }
    // seqCounter is deliberately NOT reset: it is only a (tick, seq)
    // tie-break, and staying monotonic keeps record order unique
    // across a clear() boundary.
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

void
TraceSink::writeJsonl(std::ostream &os) const
{
    for (const TraceEvent &ev : events()) {
        ev.toJson().dump(os, 0);
        os << '\n';
    }
}

void
TraceSink::writeChromeTrace(std::ostream &os) const
{
    chromeTraceJson().dump(os, 2);
    os << '\n';
}

} // namespace killi
