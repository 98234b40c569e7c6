#include "fault/fault_map.hh"

#include <algorithm>
#include <atomic>
#include <cstring>

#include "common/log.hh"

namespace killi
{

FaultMap::FaultMap(std::shared_ptr<const FaultPopulation> population,
                   std::size_t line_bits, double freq_ghz,
                   double vNorm, bool monotone, double cover)
    : bitsPerLine(line_bits), freqGHz(freq_ghz), currentV(vNorm),
      monotone(monotone), coverP(cover), pop(std::move(population))
{
    if (bitsPerLine > 0xFFFF)
        fatal("FaultMap: line width %zu exceeds 16-bit positions",
              bitsPerLine);
    if (!pop)
        fatal("FaultMap: null fault population");
    offsets.resize(pop->size() + 1);
    coldActivate(coveredP(vNorm), /*validate=*/true);
}

double
FaultMap::coveredP(double vNorm) const
{
    const double p = vModel.pCell(vNorm, freqGHz);
    if (p > coverP)
        fatal("FaultMap: %.4g V needs pCell %.6g, past the cover "
              "%.6g its die was sampled under", vNorm, p, coverP);
    return p;
}

void
FaultMap::setVoltage(double vNorm)
{
    // A bit-exact re-set of the current operating point is an
    // idempotent no-op, not a rejected "raise": warm-store hits and
    // replayed jobs legitimately re-apply the point voltage.
    if (vNorm == currentV)
        return;
    if (monotone && vNorm > currentV)
        fatal("FaultMap::setVoltage: raising %.4g -> %.4g violates "
              "the monotone voltage regime (only droop-scheduled "
              "models may raise V)", currentV, vNorm);
    const double p = coveredP(vNorm);
    const bool lowering = vNorm < currentV;
    currentV = vNorm;
    if (incremental && indexValid && lowering) {
        // Monotone step down: pCell only grows, so the active sets
        // only gain cells — exactly the index entries with threshold
        // in [pCell(V1), pCell(V2)), which the cursor walks over.
        activateDelta(p);
#ifdef KILLI_CHECK_INVARIANTS
        checkDeltaMatchesCold(p);
#endif
    } else {
        coldActivate(p);
        if (incremental) {
            if (!indexValid)
                rebuildIndex();
            resetCursor(p);
        }
    }
}

void
FaultMap::coldActivate(double p, bool validate)
{
    const FaultPopulation &lines = *pop;
    // One pass: each line's active cells are appended while the line
    // is in cache (validation rides along: it reads every cell
    // anyway). The array keeps its capacity across activations.
    cells.clear();
    for (std::size_t i = 0; i < lines.size(); ++i) {
        const std::vector<FaultCell> &src = lines[i];
        offsets[i] = static_cast<std::uint32_t>(cells.size());
        for (std::size_t j = 0; j < src.size(); ++j) {
            if (validate) {
                if (src[j].bit >= bitsPerLine)
                    fatal("FaultMap: population line %zu cell %u "
                          "outside %zu-bit line",
                          i, src[j].bit, bitsPerLine);
                if (j > 0 && src[j].bit <= src[j - 1].bit)
                    fatal("FaultMap: population line %zu not sorted "
                          "strictly by bit at position %zu", i, j);
            }
            if (src[j].threshold < p)
                cells.push_back(src[j]);
        }
    }
    if (cells.size() > UINT32_MAX)
        fatal("FaultMap: %zu active cells overflow 32-bit offsets",
              cells.size());
    offsets[lines.size()] = static_cast<std::uint32_t>(cells.size());
}

bool
FaultMap::enableIncrementalVoltage()
{
    if (!monotone)
        return false; // the regime may raise V: deltas can't apply
    if (incremental)
        return true;
    incremental = true;
    rebuildIndex();
    resetCursor(vModel.pCell(currentV, freqGHz));
    return true;
}

void
FaultMap::rebuildIndex()
{
    const FaultPopulation &lines = *pop;
    thresholdIndex.clear();
    std::size_t total = 0;
    for (const std::vector<FaultCell> &line : lines)
        total += line.size();
    thresholdIndex.reserve(total);
    // The active set can grow to the whole population: room for it
    // now keeps every incremental step from reallocating.
    cells.reserve(total);
    for (std::size_t i = 0; i < lines.size(); ++i) {
        for (std::size_t j = 0; j < lines[i].size(); ++j) {
            thresholdIndex.push_back(
                {lines[i][j].threshold, static_cast<std::uint32_t>(i),
                 static_cast<std::uint32_t>(j)});
        }
    }
    // LSD counting sort on the threshold's bit pattern: two stable
    // 16-bit passes, near-linear in population size (a comparator
    // sort here dominated sweep setup on million-cell populations).
    // The sign-flip transform maps IEEE float ordering onto unsigned
    // ordering (covers plantFault's -1.0f sentinel), and stability
    // over the fill order supplies the deterministic (line, cell)
    // tie-break — the walk order cannot affect the result anyway
    // (each line's insertions land at by-bit positions regardless of
    // arrival order).
    const auto key32 = [](float t) {
        std::uint32_t b;
        std::memcpy(&b, &t, sizeof b);
        return b ^ ((b & 0x80000000u) != 0 ? 0xFFFFFFFFu
                                           : 0x80000000u);
    };
    std::vector<ThresholdRef> tmp(total);
    std::vector<std::size_t> count(65536);
    for (const int shift : {0, 16}) {
        std::fill(count.begin(), count.end(), std::size_t{0});
        for (const ThresholdRef &ref : thresholdIndex)
            ++count[(key32(ref.threshold) >> shift) & 0xFFFF];
        std::size_t running = 0;
        for (std::size_t &c : count) {
            const std::size_t n = c;
            c = running;
            running += n;
        }
        for (const ThresholdRef &ref : thresholdIndex)
            tmp[count[(key32(ref.threshold) >> shift) & 0xFFFF]++] =
                ref;
        thresholdIndex.swap(tmp);
    }
    indexValid = true;
}

void
FaultMap::resetCursor(double p)
{
    // First entry with double(threshold) >= p: the same promoted
    // comparison the cold filter uses, so a cell sitting exactly at
    // the boundary lands on the same side either way.
    cursor = static_cast<std::size_t>(
        std::lower_bound(thresholdIndex.begin(), thresholdIndex.end(),
                         p,
                         [](const ThresholdRef &r, double pv) {
                             return double(r.threshold) < pv;
                         }) -
        thresholdIndex.begin());
}

void
FaultMap::activateDelta(double p)
{
    // Everything in [cursor, end) crosses at this step (same
    // promoted comparison as resetCursor / the cold filter).
    const auto end = static_cast<std::size_t>(
        std::lower_bound(thresholdIndex.begin() +
                             static_cast<std::ptrdiff_t>(cursor),
                         thresholdIndex.end(), p,
                         [](const ThresholdRef &r, double pv) {
                             return double(r.threshold) < pv;
                         }) -
        thresholdIndex.begin());
    if (end == cursor)
        return;
    // The slice is threshold-ordered, i.e.\ scattered across lines.
    // Regroup it by (line, cell) so each touched line is visited
    // once and its crossings land in one backward merge instead of
    // a lower_bound + memmove per cell — the per-cell form's random
    // line accesses dominated incremental stepping. Within a line,
    // ascending cell index is ascending bit (population sort
    // invariant), so the merge output stays bit-sorted; a bit cannot
    // appear on both sides (each population cell activates once).
    // Stable counting-bucket by line — no comparisons, two linear
    // passes over the slice.
    const FaultPopulation &lines = *pop;
    deltaScratch.resize(end - cursor);
    deltaOffsets.assign(lines.size(), 0);
    for (std::size_t i = cursor; i < end; ++i)
        ++deltaOffsets[thresholdIndex[i].line];
    std::size_t running = 0;
    for (std::uint32_t &c : deltaOffsets) {
        const std::uint32_t n = c;
        c = static_cast<std::uint32_t>(running);
        running += n;
    }
    for (std::size_t i = cursor; i < end; ++i)
        deltaScratch[deltaOffsets[thresholdIndex[i].line]++] =
            thresholdIndex[i];
    cursor = end;
    // deltaOffsets[l] is now the end of line l's bucket. Grow the CSR
    // in place, walking the lines backward: a line's cells move right
    // by the number of crossings at or below it (j, counting down), so
    // the untouched lines between two touched ones move as one block
    // and each touched line merges its crossings in by bit. Nothing
    // below the lowest touched line moves.
    const std::size_t oldSize = cells.size();
    cells.resize(oldSize + deltaScratch.size());
    const auto at = [this](std::size_t pos) { return cells.begin() + pos; };
    std::size_t blockEnd = oldSize; // old end of the block above line
    std::size_t j = deltaScratch.size();
    for (std::size_t line = lines.size(); j > 0;) {
        --line;
        const std::size_t oldEnd = offsets[line + 1];
        offsets[line + 1] = static_cast<std::uint32_t>(oldEnd + j);
        const std::size_t g = line > 0 ? deltaOffsets[line - 1] : 0;
        if (g == j)
            continue; // no crossings: moves with its block
        std::move_backward(at(oldEnd), at(blockEnd), at(blockEnd + j));
        // The bucket kept threshold order; restore ascending cell
        // index (== ascending bit) with an insertion sort — groups
        // are a handful of cells.
        for (std::size_t a = g + 1; a < j; ++a) {
            const ThresholdRef ref = deltaScratch[a];
            std::size_t b = a;
            while (b > g && deltaScratch[b - 1].cell > ref.cell) {
                deltaScratch[b] = deltaScratch[b - 1];
                --b;
            }
            deltaScratch[b] = ref;
        }
        const std::size_t oldBegin = offsets[line];
        std::size_t i = oldEnd;     // old cells left (from the back)
        std::size_t w = oldEnd + j; // next write slot (exclusive)
        while (j > g) {
            const FaultCell &cell = lines[line][deltaScratch[j - 1].cell];
            if (i > oldBegin && cells[i - 1].bit > cell.bit) {
                cells[--w] = cells[--i];
            } else {
                cells[--w] = cell;
                --j;
            }
        }
        std::move_backward(at(oldBegin), at(i), at(w));
        blockEnd = oldBegin;
    }
}

#ifdef KILLI_CHECK_INVARIANTS
void
FaultMap::checkDeltaMatchesCold(double p) const
{
    for (std::size_t i = 0; i < pop->size(); ++i) {
        std::vector<FaultCell> cold;
        for (const FaultCell &cell : (*pop)[i])
            if (cell.threshold < p)
                cold.push_back(cell);
        const std::span<const FaultCell> got = lineFaults(i);
        bool same = got.size() == cold.size();
        for (std::size_t j = 0; same && j < cold.size(); ++j) {
            same = got[j].bit == cold[j].bit &&
                   got[j].threshold == cold[j].threshold &&
                   got[j].stuckValue == cold[j].stuckValue &&
                   got[j].kind == cold[j].kind;
        }
        if (!same)
            fatal("FaultMap: incremental voltage step diverged from "
                  "cold sampling at line %zu (V=%.6g)", i, currentV);
    }
}
#endif

unsigned
FaultMap::countFaults(std::size_t line, std::size_t prefix_bits) const
{
    unsigned count = 0;
    for (const FaultCell &cell : lineFaults(line)) {
        if (cell.bit >= prefix_bits)
            break; // sorted: everything after is out of the prefix
        ++count;
    }
    return count;
}

bool
FaultMap::isStuck(std::size_t line, std::uint16_t bit) const
{
    const std::span<const FaultCell> stuck = lineFaults(line);
    const auto it = std::lower_bound(
        stuck.begin(), stuck.end(), bit,
        [](const FaultCell &c, std::uint16_t b) { return c.bit < b; });
    return it != stuck.end() && it->bit == bit;
}

std::vector<std::size_t>
FaultMap::visibleErrors(std::size_t line, const BitVec &value) const
{
    std::vector<std::size_t> flipped;
    visibleErrorsInto(line, value, flipped);
    return flipped;
}

void
FaultMap::visibleErrorsInto(std::size_t line, const BitVec &value,
                            std::vector<std::size_t> &out) const
{
    out.clear();
    for (const FaultCell &cell : lineFaults(line)) {
        if (cell.bit < value.size() &&
            value.get(cell.bit) != cell.stuckValue) {
            out.push_back(cell.bit);
        }
    }
    // Soft-error upsets flip healthy cells (stuck cells hold their
    // defect-driven value regardless).
    for (const std::uint16_t bit : transients(line)) {
        if (bit < value.size() && !isStuck(line, bit))
            out.push_back(bit);
    }
}

std::vector<std::size_t>
FaultMap::visibleErrors(std::size_t line, const BitVec &data,
                        const BitVec &meta) const
{
    std::vector<std::size_t> flipped;
    visibleErrorsInto(line, data, meta, flipped);
    return flipped;
}

void
FaultMap::visibleErrorsInto(std::size_t line, const BitVec &data,
                            const BitVec &meta,
                            std::vector<std::size_t> &out) const
{
    out.clear();
    const std::size_t split = data.size();
    for (const FaultCell &cell : lineFaults(line)) {
        bool stored;
        if (cell.bit < split)
            stored = data.get(cell.bit);
        else if (cell.bit < split + meta.size())
            stored = meta.get(cell.bit - split);
        else
            continue;
        if (stored != cell.stuckValue)
            out.push_back(cell.bit);
    }
    for (const std::uint16_t bit : transients(line)) {
        if (bit < split + meta.size() && !isStuck(line, bit))
            out.push_back(bit);
    }
}

void
FaultMap::injectTransient(std::size_t line, std::uint16_t bit)
{
    if (line >= numLines() || bit >= bitsPerLine)
        fatal("FaultMap::injectTransient: out of range (%zu, %u)",
              line, bit);
    // A second upset on the same cell flips it back.
    const auto key = static_cast<std::uint32_t>(line);
    std::vector<std::uint16_t> &flips = transientFlips[key];
    const auto it = std::find(flips.begin(), flips.end(), bit);
    if (it == flips.end())
        flips.push_back(bit);
    else if (flips.size() > 1)
        flips.erase(it);
    else
        transientFlips.erase(key);
}

void
FaultMap::clearTransients(std::size_t line)
{
    if (!transientFlips.empty())
        transientFlips.erase(static_cast<std::uint32_t>(line));
}

std::span<const std::uint16_t>
FaultMap::transients(std::size_t line) const
{
    if (transientFlips.empty())
        return {};
    const auto it = transientFlips.find(static_cast<std::uint32_t>(line));
    if (it == transientFlips.end())
        return {};
    return it->second;
}

void
FaultMap::plantFault(std::size_t line, std::uint16_t bit,
                     bool stuck_value, FaultKind kind)
{
    if (line >= pop->size() || bit >= bitsPerLine)
        fatal("FaultMap::plantFault: out of range (%zu, %u)", line,
              bit);
    // Copy-on-write: other maps (and warm stores) may share the
    // population and must never see the plant. Edit in place while
    // this map holds the only handle (no accessor hands one out, so
    // none can appear); otherwise clone it once, after which the
    // clone is this map's to edit. The acquire fence pairs with the
    // release in a former holder's handle drop, so its last reads
    // happen before these writes.
    if (pop.use_count() != 1)
        pop = std::make_shared<FaultPopulation>(*pop);
    std::atomic_thread_fence(std::memory_order_acquire);
    FaultPopulation &lines = const_cast<FaultPopulation &>(*pop);
    FaultCell cell;
    cell.bit = bit;
    cell.threshold = -1.0f; // below every pCell: always active
    cell.stuckValue = stuck_value;
    cell.kind = kind;
    // Replace any sampled cell at this position so the planted cell
    // fully defines the bit's behaviour, or insert it in by-bit
    // order (the sort invariant isStuck()'s binary search needs).
    const auto byBit = [](const FaultCell &c, std::uint16_t b) {
        return c.bit < b;
    };
    std::vector<FaultCell> &potential = lines[line];
    const auto slot = std::lower_bound(potential.begin(), potential.end(),
                                       bit, byBit);
    if (slot != potential.end() && slot->bit == bit)
        *slot = cell;
    else
        potential.insert(slot, cell);
    // The same in the active segment; an insertion shifts every later
    // line's offset.
    const auto last = cells.begin() + offsets[line + 1];
    const auto at =
        std::lower_bound(cells.begin() + offsets[line], last, bit, byBit);
    if (at != last && at->bit == bit) {
        *at = cell;
    } else {
        cells.insert(at, cell);
        for (std::size_t l = line + 1; l < offsets.size(); ++l)
            ++offsets[l];
    }
    // The population changed shape: any incremental-stepping index
    // now holds stale (line, cell) references. Rebuild lazily on the
    // next voltage step.
    indexValid = false;
}

FaultMap::LineHistogram
FaultMap::histogram(std::size_t prefix_bits) const
{
    LineHistogram hist;
    for (std::size_t i = 0; i < numLines(); ++i) {
        const unsigned n = countFaults(i, prefix_bits);
        if (n == 0)
            ++hist.zero;
        else if (n == 1)
            ++hist.one;
        else
            ++hist.twoPlus;
    }
    return hist;
}

} // namespace killi
