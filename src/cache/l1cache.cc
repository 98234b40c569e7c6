#include "cache/l1cache.hh"

namespace killi
{

L1Cache::L1Cache(const CacheGeometry &geometry)
    : geom(geometry), lines(geometry.numLines())
{
}

L1Cache::Line *
L1Cache::findLine(Addr addr)
{
    const std::size_t set = geom.setOf(addr);
    const Addr tag = geom.tagOf(addr);
    for (unsigned way = 0; way < geom.assoc; ++way) {
        Line &line = lines[geom.lineId(set, way)];
        if (line.valid && line.tag == tag)
            return &line;
    }
    return nullptr;
}

bool
L1Cache::lookup(Addr addr)
{
    if (Line *line = findLine(addr)) {
        line->lastUse = ++useCounter;
        return true;
    }
    return false;
}

void
L1Cache::fill(Addr addr)
{
    const std::size_t set = geom.setOf(addr);
    Line *victim = nullptr;
    for (unsigned way = 0; way < geom.assoc; ++way) {
        Line &line = lines[geom.lineId(set, way)];
        if (!line.valid) {
            victim = &line;
            break;
        }
        if (!victim || line.lastUse < victim->lastUse)
            victim = &line;
    }
    victim->valid = true;
    victim->tag = geom.tagOf(addr);
    victim->lastUse = ++useCounter;
}

void
L1Cache::writeThrough(Addr addr)
{
    // No-write-allocate: a hit refreshes recency, a miss does not
    // install (GPU stores stream through to the L2/memory).
    if (Line *line = findLine(addr))
        line->lastUse = ++useCounter;
}

void
L1Cache::flush()
{
    for (Line &line : lines)
        line.valid = false;
}

} // namespace killi
