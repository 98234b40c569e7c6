#include "fault/fault_map.hh"

#include <algorithm>
#include <atomic>

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
    currentV = vNorm;
    coldActivate(p);
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
