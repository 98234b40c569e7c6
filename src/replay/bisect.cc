#include "replay/bisect.hh"

#include <algorithm>
#include <sstream>

namespace killi::replay
{

namespace
{

std::string
hex64(std::uint64_t v)
{
    std::ostringstream os;
    os << "0x" << std::hex << v;
    return os.str();
}

/** prefix[i] = rolling digest of entries [0, i). */
template <typename T>
std::vector<std::uint64_t>
prefixDigests(const std::vector<T> &entries)
{
    std::vector<std::uint64_t> prefix(entries.size() + 1, 0);
    std::uint64_t acc = 0;
    for (std::size_t i = 0; i < entries.size(); ++i) {
        acc = rollDigest(acc, Recording::digestOf(entries[i]));
        prefix[i + 1] = acc;
    }
    return prefix;
}

/**
 * Binary search for the first index whose entries differ, or npos
 * when the common prefix (length min(|a|,|b|)) is identical. One
 * digest comparison per probe — O(log n) probes total.
 */
std::uint64_t
firstDiffIndex(const std::vector<std::uint64_t> &a,
               const std::vector<std::uint64_t> &b,
               std::uint64_t &probes)
{
    const std::size_t n = std::min(a.size(), b.size()) - 1;
    ++probes;
    if (a[n] == b[n])
        return std::uint64_t(-1);
    // Invariant: prefixes of length lo agree, of length hi differ.
    std::size_t lo = 0, hi = n;
    while (hi - lo > 1) {
        const std::size_t mid = lo + (hi - lo) / 2;
        ++probes;
        if (a[mid] == b[mid])
            lo = mid;
        else
            hi = mid;
    }
    return hi - 1; // first divergent entry
}

struct Candidate
{
    bool found = false;
    std::string stream;
    std::uint64_t index = 0;
    /** Ordering key: (pop ordinal, rank). The pop event at ordinal p
     *  precedes the rng draws and trace records made inside its
     *  callback (which carry pop == p), hence rank pop=0 < rng=1 <
     *  trace=2. */
    std::uint64_t pop = 0;
    int rank = 0;
    std::string a, b;
};

bool
earlier(const Candidate &x, const Candidate &y)
{
    if (x.pop != y.pop)
        return x.pop < y.pop;
    return x.rank < y.rank;
}

std::string
renderRng(const Recording &r, std::uint64_t i)
{
    if (i >= r.rng.size())
        return "(stream ended at " + std::to_string(r.rng.size()) +
               " segments)";
    const RngSegment &s = r.rng[i];
    std::ostringstream os;
    os << r.streams[s.stream] << " pop=" << s.pop << " draws="
       << s.count << " digest=" << hex64(s.digest);
    return os.str();
}

std::string
renderPop(const Recording &r, std::uint64_t i)
{
    if (i >= r.pops.size())
        return "(stream ended at " + std::to_string(r.pops.size()) +
               " pops)";
    const EventPop &p = r.pops[i];
    std::ostringstream os;
    os << "(" << p.when << ", " << p.seq << ")";
    return os.str();
}

std::string
renderTrace(const Recording &r, std::uint64_t i)
{
    if (i >= r.trace.size())
        return "(stream ended at " + std::to_string(r.trace.size()) +
               " records)";
    const TraceRec &t = r.trace[i];
    return r.names[t.name] + " tick=" + std::to_string(t.tick) +
           " pop=" + std::to_string(t.pop) + " digest=" +
           hex64(t.digest);
}

/** Pop ordinal of stream entry @p i, preferring the side that still
 *  has the entry (a length divergence leaves one side short). */
std::uint64_t
rngPopOrdinal(const Recording &a, const Recording &b, std::uint64_t i)
{
    if (i < a.rng.size())
        return a.rng[i].pop;
    if (i < b.rng.size())
        return b.rng[i].pop;
    return 0;
}

std::uint64_t
tracePopOrdinal(const Recording &a, const Recording &b,
                std::uint64_t i)
{
    if (i < a.trace.size())
        return a.trace[i].pop;
    if (i < b.trace.size())
        return b.trace[i].pop;
    return 0;
}

} // namespace

Json
BisectReport::toJson() const
{
    Json doc = Json::object();
    doc.set("diverged", Json::boolean(diverged));
    doc.set("probes", Json::number(probes));
    if (!diverged)
        return doc;
    doc.set("stream", Json::string(stream));
    doc.set("index", Json::number(index));
    doc.set("tick", Json::number(std::uint64_t(tick)));
    doc.set("seq", Json::number(seq));
    doc.set("a", Json::string(a));
    doc.set("b", Json::string(b));
    Json ctx = Json::array();
    for (const BisectContext &c : context) {
        Json e = Json::object();
        e.set("side", Json::string(c.side));
        e.set("index", Json::number(c.index));
        e.set("tick", Json::number(std::uint64_t(c.tick)));
        e.set("name", Json::string(c.name));
        e.set("digest", Json::string(hex64(c.digest)));
        ctx.push(std::move(e));
    }
    doc.set("context", std::move(ctx));
    return doc;
}

std::string
BisectReport::summary() const
{
    std::ostringstream os;
    if (!diverged) {
        os << "recordings are bit-identical (" << probes
           << " digest probes)";
        return os.str();
    }
    os << "first divergence: stream=" << stream << " index=" << index
       << " tick=" << tick << " seq=" << seq << " (" << probes
       << " digest probes)\n  a: " << a << "\n  b: " << b;
    for (const BisectContext &c : context) {
        os << "\n  [" << c.side << "] trace#" << c.index << " tick="
           << c.tick << " " << c.name << " digest=" << hex64(c.digest);
    }
    return os.str();
}

BisectReport
bisectRecordings(const Recording &a, const Recording &b,
                 std::size_t contextRadius)
{
    BisectReport rep;

    const bool compareTrace = a.traceEnabled && b.traceEnabled &&
                              a.traceMask == b.traceMask;

    const auto rngA = prefixDigests(a.rng);
    const auto rngB = prefixDigests(b.rng);
    const auto popA = prefixDigests(a.pops);
    const auto popB = prefixDigests(b.pops);

    std::vector<Candidate> candidates;

    const std::uint64_t npos = std::uint64_t(-1);

    std::uint64_t i = firstDiffIndex(rngA, rngB, rep.probes);
    if (i == npos && a.rng.size() != b.rng.size())
        i = std::min(a.rng.size(), b.rng.size());
    if (i != npos) {
        Candidate c;
        c.found = true;
        c.stream = "rng";
        c.index = i;
        c.pop = rngPopOrdinal(a, b, i);
        c.rank = 1;
        c.a = renderRng(a, i);
        c.b = renderRng(b, i);
        candidates.push_back(std::move(c));
    }

    i = firstDiffIndex(popA, popB, rep.probes);
    if (i == npos && a.pops.size() != b.pops.size())
        i = std::min(a.pops.size(), b.pops.size());
    if (i != npos) {
        Candidate c;
        c.found = true;
        c.stream = "pop";
        c.index = i;
        c.pop = i + 1;
        c.rank = 0;
        c.a = renderPop(a, i);
        c.b = renderPop(b, i);
        candidates.push_back(std::move(c));
    }

    std::uint64_t traceDiff = npos;
    if (compareTrace) {
        const auto trcA = prefixDigests(a.trace);
        const auto trcB = prefixDigests(b.trace);
        traceDiff = firstDiffIndex(trcA, trcB, rep.probes);
        if (traceDiff == npos && a.trace.size() != b.trace.size())
            traceDiff = std::min(a.trace.size(), b.trace.size());
        if (traceDiff != npos) {
            Candidate c;
            c.found = true;
            c.stream = "trace";
            c.index = traceDiff;
            c.pop = tracePopOrdinal(a, b, traceDiff);
            c.rank = 2;
            c.a = renderTrace(a, traceDiff);
            c.b = renderTrace(b, traceDiff);
            candidates.push_back(std::move(c));
        }
    }

    if (candidates.empty()) {
        if (a.resultDigest != b.resultDigest) {
            rep.diverged = true;
            rep.stream = "result";
            rep.a = a.resultDigest;
            rep.b = b.resultDigest;
            if (!a.pops.empty()) {
                rep.tick = a.pops.back().when;
                rep.seq = a.pops.back().seq;
            }
        }
        return rep;
    }

    const Candidate &best = *std::min_element(
        candidates.begin(), candidates.end(),
        [](const Candidate &x, const Candidate &y) {
            return earlier(x, y);
        });

    rep.diverged = true;
    rep.stream = best.stream;
    rep.index = best.index;
    rep.a = best.a;
    rep.b = best.b;
    // Map the enclosing pop ordinal to simulated (tick, seq). Side a
    // is authoritative for the mapping; a pop-stream divergence uses
    // the side that still has the entry.
    const std::uint64_t pop = best.pop;
    if (pop >= 1) {
        const std::vector<EventPop> &pops =
            pop <= a.pops.size() ? a.pops : b.pops;
        if (pop <= pops.size()) {
            rep.tick = pops[pop - 1].when;
            rep.seq = pops[pop - 1].seq;
        }
    }

    // ktrace context around the divergence: the records surrounding
    // the divergent trace index (or, for rng/pop divergences, the
    // first record at/after the divergent pop).
    if (compareTrace && !(a.trace.empty() && b.trace.empty())) {
        std::uint64_t center = traceDiff;
        if (center == npos) {
            const auto it = std::lower_bound(
                a.trace.begin(), a.trace.end(), pop,
                [](const TraceRec &t, std::uint64_t p) {
                    return t.pop < p;
                });
            center = std::uint64_t(it - a.trace.begin());
        }
        const auto pushCtx = [&rep](const char *side,
                                    std::uint64_t index,
                                    const TraceRec &t,
                                    const std::string &name) {
            BisectContext c;
            c.side = side;
            c.index = index;
            c.tick = t.tick;
            c.name = name;
            c.digest = t.digest;
            rep.context.push_back(std::move(c));
        };
        const std::uint64_t lo =
            center > contextRadius ? center - contextRadius : 0;
        const std::uint64_t hi = center + contextRadius + 1;
        for (std::uint64_t j = lo; j < hi; ++j) {
            const bool inA = j < a.trace.size();
            const bool inB = j < b.trace.size();
            const bool same = inA && inB &&
                Recording::digestOf(a.trace[j]) ==
                    Recording::digestOf(b.trace[j]) &&
                a.names[a.trace[j].name] == b.names[b.trace[j].name];
            if (inA) {
                const TraceRec &t = a.trace[j];
                pushCtx(same ? "both" : "a", j, t,
                        a.names[t.name]);
            }
            if (inB && !same) {
                const TraceRec &t = b.trace[j];
                pushCtx("b", j, t, b.names[t.name]);
            }
        }
    }

    return rep;
}

} // namespace killi::replay
