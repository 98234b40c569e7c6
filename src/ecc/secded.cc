#include "ecc/secded.hh"

#include <bit>

#include "common/log.hh"
#include "common/replay_probe.hh"

namespace killi
{

namespace
{
bool
isPowerOfTwo(std::uint32_t x)
{
    return x && !(x & (x - 1));
}
} // namespace

Secded::Secded(std::size_t data_bits)
    : k(data_bits)
{
    if (k == 0)
        fatal("Secded: zero data bits");

    // Choose h such that all k data bits fit in the non-power-of-two
    // Hamming positions among 1..k+h, i.e. 2^h >= k + h + 1.
    h = 1;
    while ((std::uint64_t{1} << h) < k + h + 1)
        ++h;
    m = k + h;

    dataToHamming.resize(k);
    hammingToData.assign(m + 1, -1);
    std::uint32_t pos = 1;
    for (std::size_t d = 0; d < k; ++d) {
        while (isPowerOfTwo(pos))
            ++pos;
        dataToHamming[d] = pos;
        hammingToData[pos] = static_cast<std::int32_t>(d);
        ++pos;
    }
    if (dataToHamming.back() > m)
        panic("Secded: layout overflow (k=%zu h=%zu)", k, h);

    syndromeMasks.assign(h, BitVec(k));
    for (std::size_t d = 0; d < k; ++d) {
        for (std::size_t j = 0; j < h; ++j) {
            if (dataToHamming[d] & (std::uint32_t{1} << j))
                syndromeMasks[j].set(d);
        }
    }

    // Transpose the encode map for the byte-sliced hot path. The
    // image of unit vector e_d packs the h syndrome checkbits (the
    // bits of d's Hamming position) plus the stored overall-parity
    // bit, which d flips iff 1 ^ parity(dataToHamming[d]): its
    // data-parity term XOR its syndrome-bit contributions. h + 1 <=
    // 64 for any k up to 2^63 - 64, so the image fits one word.
    std::vector<BitVec> columns(k, BitVec(h + 1));
    for (std::size_t d = 0; d < k; ++d) {
        const std::uint64_t col = dataToHamming[d] |
            (std::uint64_t{
                 1 ^ (unsigned(std::popcount(dataToHamming[d])) & 1)}
             << h);
        columns[d].setWord(0, col);
    }
    slicer.build(columns);
}

std::string
Secded::name() const
{
    return "SECDED(" + std::to_string(codewordBits()) + "," +
        std::to_string(k) + ")";
}

BitVec
Secded::encodeReference(const BitVec &data) const
{
    BitVec check(h + 1);
    bool overall = data.parity();
    for (std::size_t j = 0; j < h; ++j) {
        const bool bit = data.dotParity(syndromeMasks[j]);
        check.set(j, bit);
        overall ^= bit;
    }
    // The overall parity bit makes the whole codeword even-parity.
    check.set(h, overall);
    return check;
}

BitVec
Secded::encode(const BitVec &data) const
{
    BitVec check(h + 1);
    check.setWord(0, slicer.applyWord(data));
    return check;
}

void
Secded::encodeInto(const BitVec &data, BitVec &out) const
{
    if (out.size() != h + 1)
        out = BitVec(h + 1);
    out.setWord(0, slicer.applyWord(data));
}

std::size_t
Secded::combinedFromHamming(std::uint32_t pos) const
{
    if (isPowerOfTwo(pos)) {
        // Checkbit 2^j is stored at combined index k + j.
        return k + static_cast<std::size_t>(std::countr_zero(pos));
    }
    const std::int32_t d = pos <= m ? hammingToData[pos] : -1;
    return d < 0 ? Action::npos : static_cast<std::size_t>(d);
}

Secded::Action
Secded::interpret(const RawSyndrome &raw) const
{
    if (raw.syndrome == 0) {
        if (!raw.overallMismatch)
            return {DecodeStatus::NoError, Action::npos};
        // Single error in the overall parity bit itself.
        return {DecodeStatus::Corrected, k + h};
    }
    if (!raw.overallMismatch) {
        // Non-zero syndrome with matching overall parity: an even
        // number (>= 2) of errors. Detected, not correctable.
        return {DecodeStatus::DetectedUncorrectable, Action::npos};
    }
    // Odd error count with non-zero syndrome: believed single error.
    const std::size_t flip = raw.syndrome <= m
        ? combinedFromHamming(raw.syndrome) : Action::npos;
    if (flip == Action::npos) {
        // Syndrome points outside the shortened codeword: cannot be
        // a single error, so it is detected as uncorrectable.
        return {DecodeStatus::DetectedUncorrectable, Action::npos};
    }
    return {DecodeStatus::Corrected, flip};
}

DecodeResult
Secded::decodeReference(BitVec &data, BitVec &check) const
{
    if (data.size() != k || check.size() != h + 1)
        fatal("Secded::decode: wrong operand widths");

    RawSyndrome raw;
    bool overall = data.parity();
    for (std::size_t j = 0; j < h; ++j) {
        const bool recomputed = data.dotParity(syndromeMasks[j]);
        const bool stored = check.get(j);
        overall ^= stored;
        if (recomputed != stored)
            raw.syndrome |= std::uint32_t{1} << j;
    }
    overall ^= check.get(h);
    raw.overallMismatch = overall;

    return applyAction(raw, data, check);
}

DecodeResult
Secded::decode(BitVec &data, BitVec &check) const
{
    if (data.size() != k || check.size() != h + 1)
        fatal("Secded::decode: wrong operand widths");

    // diff holds recomputed^stored for all h+1 checkbits at once;
    // the syndrome is its low h bits, and the overall mismatch is
    // the parity of the whole diff word (the recomputed overall bit
    // already folds in the data parity and the h syndrome bits).
    std::uint64_t diff = slicer.applyWord(data) ^ check.word(0);
    // Bisector fault injection (see replay_probe.hh).
    if (perturbDecodeFires()) [[unlikely]]
        diff ^= 1;
    RawSyndrome raw;
    raw.syndrome = std::uint32_t(diff & ((std::uint64_t{1} << h) - 1));
    raw.overallMismatch = (std::popcount(diff) & 1) != 0;

    return applyAction(raw, data, check);
}

DecodeResult
Secded::applyAction(const RawSyndrome &raw, BitVec &data,
                    BitVec &check) const
{
    const Action action = interpret(raw);
    DecodeResult result;
    result.syndromeNonZero = raw.syndrome != 0;
    result.globalParityMismatch = raw.overallMismatch;
    result.status = action.status;
    if (action.status == DecodeStatus::Corrected) {
        result.correctedBits = 1;
        if (action.flipPos < k)
            data.flip(action.flipPos);
        else
            check.flip(action.flipPos - k);
    }
    return result;
}

DecodeResult
Secded::probe(const std::vector<std::size_t> &errorPositions) const
{
    RawSyndrome raw;
    for (const std::size_t pos : errorPositions) {
        raw.overallMismatch = !raw.overallMismatch;
        if (pos < k) {
            raw.syndrome ^= dataToHamming[pos];
        } else if (pos < k + h) {
            raw.syndrome ^= std::uint32_t{1} << (pos - k);
        } else if (pos == k + h) {
            // Overall parity bit: affects only the extended parity.
        } else {
            fatal("Secded::probe: position %zu out of codeword", pos);
        }
    }
    // Bisector fault injection (see replay_probe.hh). probe() is the
    // simulated hot path — the schemes evaluate syndromes from the
    // fault pattern, never from data words — so the countdown must
    // be armed here as well as in decode(). Matching decode()'s
    // `diff ^= 1`, the flip toggles both syndrome bit 0 and the
    // overall parity: on a clean line that reads as a believed
    // single error, which the omniscient comparison then reports as
    // a miscorrection.
    if (perturbDecodeFires()) [[unlikely]] {
        raw.syndrome ^= 1;
        raw.overallMismatch = !raw.overallMismatch;
    }

    const Action action = interpret(raw);
    DecodeResult result;
    result.syndromeNonZero = raw.syndrome != 0;
    result.globalParityMismatch = raw.overallMismatch;

    // probe() is omniscient: compare the believed action against the
    // actual error pattern to detect silent miscorrection.
    switch (action.status) {
      case DecodeStatus::NoError:
        result.status = errorPositions.empty()
            ? DecodeStatus::NoError : DecodeStatus::Miscorrected;
        break;
      case DecodeStatus::Corrected:
        if (errorPositions.size() == 1 &&
            errorPositions.front() == action.flipPos) {
            result.status = DecodeStatus::Corrected;
            result.correctedBits = 1;
        } else {
            result.status = DecodeStatus::Miscorrected;
            result.correctedBits = 1;
        }
        break;
      case DecodeStatus::DetectedUncorrectable:
      case DecodeStatus::Miscorrected:
        result.status = DecodeStatus::DetectedUncorrectable;
        break;
    }
    return result;
}

} // namespace killi
