#include "ecc/olsc.hh"

#include <algorithm>

#include "common/log.hh"

namespace killi
{

namespace
{
bool
isPrime(unsigned x)
{
    if (x < 2)
        return false;
    for (unsigned d = 2; d * d <= x; ++d) {
        if (x % d == 0)
            return false;
    }
    return true;
}
} // namespace

Olsc::Olsc(std::size_t data_bits, unsigned m, unsigned t)
    : k(data_bits), dim(m), tCap(t)
{
    if (!isPrime(m))
        fatal("Olsc: m=%u must be prime", m);
    if (k > std::size_t{m} * m)
        fatal("Olsc: payload %zu exceeds m^2=%u", k, m * m);
    if (2 * t > m + 1)
        fatal("Olsc: t=%u too large for m=%u (need 2t <= m+1)", t, m);

    masks.assign(2 * t, std::vector<BitVec>(m, BitVec(k)));
    for (std::size_t d = 0; d < k; ++d) {
        for (unsigned g = 0; g < 2 * t; ++g)
            masks[g][classOf(g, d)].set(d);
    }

    std::vector<BitVec> columns(k, BitVec(checkBits()));
    for (std::size_t d = 0; d < k; ++d) {
        for (unsigned g = 0; g < 2 * t; ++g)
            columns[d].set(std::size_t{g} * dim + classOf(g, d));
    }
    slicer.build(columns);
}

unsigned
Olsc::classOf(unsigned g, std::size_t d) const
{
    const unsigned row = static_cast<unsigned>(d / dim);
    const unsigned col = static_cast<unsigned>(d % dim);
    if (g == 0)
        return row;
    if (g == 1)
        return col;
    // Latin square L_a with a = g - 1 in [1, m-1]; m prime makes
    // these mutually orthogonal.
    const unsigned a = g - 1;
    return (a * row + col) % dim;
}

std::string
Olsc::name() const
{
    return "OLSC(k=" + std::to_string(k) + ",m=" + std::to_string(dim) +
        ",t=" + std::to_string(tCap) + ")";
}

BitVec
Olsc::encodeReference(const BitVec &data) const
{
    BitVec check(checkBits());
    for (unsigned g = 0; g < 2 * tCap; ++g) {
        for (unsigned cls = 0; cls < dim; ++cls) {
            if (data.dotParity(masks[g][cls]))
                check.set(std::size_t{g} * dim + cls);
        }
    }
    return check;
}

BitVec
Olsc::encode(const BitVec &data) const
{
    BitVec check(checkBits());
    encodeInto(data, check);
    return check;
}

void
Olsc::encodeInto(const BitVec &data, BitVec &out) const
{
    if (out.size() != checkBits())
        out = BitVec(checkBits());
    // 2t*m <= (m+1)*m checkbits: 552 for m=23, well under the
    // 16-word scratch.
    std::uint64_t acc[16] = {};
    if (slicer.outWords() > 16)
        fatal("Olsc: check width exceeds sliced scratch");
    slicer.apply(data, acc);
    for (std::size_t w = 0; w < slicer.outWords(); ++w)
        out.setWord(w, acc[w]);
}

std::vector<std::size_t>
Olsc::majorityFlips(const std::vector<std::vector<bool>> &eqFail) const
{
    std::vector<std::size_t> flips;
    for (std::size_t d = 0; d < k; ++d) {
        unsigned failing = 0;
        for (unsigned g = 0; g < 2 * tCap; ++g) {
            if (eqFail[g][classOf(g, d)])
                ++failing;
        }
        if (failing > tCap)
            flips.push_back(d);
    }
    return flips;
}

DecodeResult
Olsc::decode(BitVec &data, BitVec &check) const
{
    if (data.size() != k || check.size() != checkBits())
        fatal("Olsc::decode: wrong operand widths");

    std::vector<std::vector<bool>> eqFail(
        2 * tCap, std::vector<bool>(dim, false));
    bool anyFail = false;
    for (unsigned g = 0; g < 2 * tCap; ++g) {
        for (unsigned cls = 0; cls < dim; ++cls) {
            const bool recomputed = data.dotParity(masks[g][cls]);
            const bool stored = check.get(std::size_t{g} * dim + cls);
            eqFail[g][cls] = recomputed != stored;
            anyFail = anyFail || eqFail[g][cls];
        }
    }

    DecodeResult result;
    result.syndromeNonZero = anyFail;
    if (!anyFail) {
        result.status = DecodeStatus::NoError;
        return result;
    }

    const std::vector<std::size_t> flips = majorityFlips(eqFail);
    for (const std::size_t d : flips)
        data.flip(d);

    // Re-check: residual failing equations that a data flip cannot
    // explain are attributed to checkbit errors and rewritten; if a
    // second majority pass would still flip data bits, the pattern
    // exceeded the code's capability.
    bool residualData = false;
    unsigned checkFixes = 0;
    for (unsigned g = 0; g < 2 * tCap; ++g) {
        for (unsigned cls = 0; cls < dim; ++cls) {
            const bool recomputed = data.dotParity(masks[g][cls]);
            const std::size_t idx = std::size_t{g} * dim + cls;
            if (recomputed != check.get(idx)) {
                check.set(idx, recomputed);
                ++checkFixes;
            }
        }
    }
    // One-step decoding: any data bit that would still cross the
    // threshold indicates an uncorrectable pattern. With checkbits
    // now rewritten every equation matches, so instead decide based
    // on the vote margin already used. Patterns beyond t errors can
    // silently miscorrect; probe() reports those as Miscorrected.
    (void)residualData;

    result.status = DecodeStatus::Corrected;
    result.correctedBits = static_cast<unsigned>(flips.size()) + checkFixes;
    return result;
}

DecodeResult
Olsc::probe(const std::vector<std::size_t> &errorPositions) const
{
    std::vector<std::vector<bool>> eqFail(
        2 * tCap, std::vector<bool>(dim, false));
    bool anyFail = false;
    std::vector<std::size_t> dataErrors;
    std::vector<bool> checkError(checkBits(), false);
    for (const std::size_t pos : errorPositions) {
        if (pos < k) {
            dataErrors.push_back(pos);
            for (unsigned g = 0; g < 2 * tCap; ++g) {
                const unsigned cls = classOf(g, pos);
                eqFail[g][cls] = !eqFail[g][cls];
            }
        } else if (pos < codewordBits()) {
            const std::size_t c = pos - k;
            checkError[c] = !checkError[c];
            const unsigned g = static_cast<unsigned>(c / dim);
            const unsigned cls = static_cast<unsigned>(c % dim);
            eqFail[g][cls] = !eqFail[g][cls];
        } else {
            fatal("Olsc::probe: position %zu out of codeword", pos);
        }
    }
    for (unsigned g = 0; g < 2 * tCap && !anyFail; ++g) {
        for (unsigned cls = 0; cls < dim; ++cls) {
            if (eqFail[g][cls]) {
                anyFail = true;
                break;
            }
        }
    }

    DecodeResult result;
    result.syndromeNonZero = anyFail;
    if (!anyFail) {
        result.status = errorPositions.empty()
            ? DecodeStatus::NoError : DecodeStatus::Miscorrected;
        return result;
    }

    std::vector<std::size_t> flips = majorityFlips(eqFail);
    std::sort(flips.begin(), flips.end());
    std::sort(dataErrors.begin(), dataErrors.end());
    if (flips == dataErrors) {
        result.status = DecodeStatus::Corrected;
        result.correctedBits =
            static_cast<unsigned>(flips.size() + errorPositions.size() -
                                  dataErrors.size());
    } else {
        result.status = DecodeStatus::Miscorrected;
        result.correctedBits = static_cast<unsigned>(flips.size());
    }
    return result;
}

} // namespace killi
