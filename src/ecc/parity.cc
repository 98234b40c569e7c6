#include "ecc/parity.hh"

#include "common/log.hh"

namespace killi
{

SegmentedParity::SegmentedParity(std::size_t data_bits,
                                 std::size_t segments, bool interleave)
    : numDataBits(data_bits), numSegments(segments),
      interleaving(interleave)
{
    if (segments == 0 || segments > data_bits ||
        data_bits % segments != 0) {
        fatal("SegmentedParity: invalid segment count %zu", segments);
    }
    masks.assign(segments, BitVec(data_bits));
    for (std::size_t i = 0; i < data_bits; ++i)
        masks[segmentOf(i)].set(i);

    useSliced = segments <= 64;
    if (useSliced) {
        std::vector<BitVec> columns(data_bits, BitVec(segments));
        for (std::size_t i = 0; i < data_bits; ++i)
            columns[i].set(segmentOf(i));
        slicer.build(columns);
    }
}

BitVec
SegmentedParity::encodeReference(const BitVec &data) const
{
    BitVec parity(numSegments);
    for (std::size_t s = 0; s < numSegments; ++s)
        parity.set(s, data.dotParity(masks[s]));
    return parity;
}

BitVec
SegmentedParity::encode(const BitVec &data) const
{
    if (!useSliced)
        return encodeReference(data);
    BitVec parity(numSegments);
    parity.setWord(0, slicer.applyWord(data));
    return parity;
}

void
SegmentedParity::encodeInto(const BitVec &data, BitVec &out) const
{
    if (!useSliced) {
        out = encodeReference(data);
        return;
    }
    if (out.size() != numSegments)
        out = BitVec(numSegments);
    out.setWord(0, slicer.applyWord(data));
}

ParityCheck
SegmentedParity::check(const BitVec &data, const BitVec &stored) const
{
    ParityCheck result;
    result.mismatch = BitVec(numSegments);
    if (useSliced) {
        result.mismatch.setWord(
            0, slicer.applyWord(data) ^ stored.word(0));
    } else {
        const BitVec computed = encodeReference(data);
        for (std::size_t s = 0; s < numSegments; ++s) {
            if (computed.get(s) != stored.get(s))
                result.mismatch.set(s);
        }
    }
    result.mismatchedSegments =
        static_cast<unsigned>(result.mismatch.popcount());
    return result;
}

ParityCheck
SegmentedParity::probe(const std::vector<std::size_t> &errorPositions) const
{
    ParityCheck result;
    probeInto(errorPositions, result);
    return result;
}

void
SegmentedParity::probeInto(const std::vector<std::size_t> &errorPositions,
                           ParityCheck &out) const
{
    if (out.mismatch.size() != numSegments)
        out.mismatch = BitVec(numSegments);
    else
        out.mismatch.clear();
    for (const std::size_t pos : errorPositions) {
        std::size_t seg;
        if (pos < numDataBits) {
            seg = segmentOf(pos);
        } else {
            seg = pos - numDataBits;
            if (seg >= numSegments)
                fatal("SegmentedParity::probe: position %zu out of "
                      "codeword", pos);
        }
        out.mismatch.flip(seg);
    }
    out.mismatchedSegments =
        static_cast<unsigned>(out.mismatch.popcount());
}

BitVec
SegmentedParity::fold(const BitVec &full, std::size_t groups) const
{
    if (groups == 0 || numSegments % groups != 0)
        fatal("SegmentedParity::fold: %zu does not divide %zu",
              groups, numSegments);
    BitVec folded(groups);
    for (std::size_t s = 0; s < numSegments; ++s) {
        // Consistent with segmentOf() in either layout: interleaved
        // segments fold modulo groups, contiguous ones by range.
        const std::size_t g = interleaving
            ? s % groups : s / (numSegments / groups);
        if (full.get(s))
            folded.flip(g);
    }
    return folded;
}

} // namespace killi
