#include "ecc/bch.hh"

#include <algorithm>
#include <bit>
#include <cassert>

#include "common/log.hh"

namespace killi
{

namespace
{
constexpr std::size_t kNpos = ~std::size_t{0};
} // namespace

Bch::Bch(std::size_t data_bits, unsigned t, bool extended)
    : k(data_bits), tCap(t), hasExtended(extended)
{
    if (k == 0 || t == 0)
        fatal("Bch: invalid parameters k=%zu t=%u", k, t);

    // Find the smallest field degree whose shortened code can hold
    // the payload: r <= m*t always, and we need k + r <= 2^m - 1.
    for (unsigned m = 3; m <= 12; ++m) {
        const std::uint32_t n = (std::uint32_t{1} << m) - 1;
        if (k + std::size_t{m} * t > n)
            continue;

        field = std::make_unique<GF2m>(m);

        // Generator polynomial: LCM of minimal polynomials of
        // alpha^1 .. alpha^2t. Work with cyclotomic cosets mod n.
        std::vector<bool> used(n, false);
        std::vector<std::uint8_t> g{1}; // g(x) = 1
        for (unsigned i = 1; i <= 2 * t; ++i) {
            if (used[i % n])
                continue;
            // Collect the coset {i, 2i, 4i, ...} mod n.
            std::vector<std::uint32_t> coset;
            std::uint32_t j = i % n;
            do {
                used[j] = true;
                coset.push_back(j);
                j = (2 * j) % n;
            } while (j != i % n);

            // Minimal polynomial = prod (x + alpha^j) over the coset,
            // computed with GF(2^m) coefficients (ends up over GF(2)).
            std::vector<std::uint32_t> mp{1};
            for (const std::uint32_t e : coset) {
                const std::uint32_t root = field->alphaPow(e);
                std::vector<std::uint32_t> next(mp.size() + 1, 0);
                for (std::size_t d = 0; d < mp.size(); ++d) {
                    next[d + 1] ^= mp[d];
                    next[d] ^= field->mul(mp[d], root);
                }
                mp = std::move(next);
            }
            for (const std::uint32_t c : mp) {
                if (c > 1)
                    panic("Bch: minimal polynomial not over GF(2)");
            }

            // g *= mp over GF(2).
            std::vector<std::uint8_t> prod(g.size() + mp.size() - 1, 0);
            for (std::size_t a = 0; a < g.size(); ++a) {
                if (!g[a])
                    continue;
                for (std::size_t b = 0; b < mp.size(); ++b)
                    prod[a + b] ^= static_cast<std::uint8_t>(mp[b]);
            }
            g = std::move(prod);
        }

        r = g.size() - 1;
        if (k + r > n) {
            field.reset();
            continue; // shortening impossible; widen the field
        }
        if (r > 63)
            fatal("Bch: generator degree %zu exceeds 63-bit encoder", r);
        gen = std::move(g);
        buildSlicer();
        return;
    }
    fatal("Bch: no supported field fits k=%zu t=%u", k, t);
}

std::string
Bch::name() const
{
    std::string base = "BCH(k=" + std::to_string(k) + ",t=" +
        std::to_string(tCap) + ",r=" + std::to_string(checkBits()) + ")";
    if (tCap == 2 && hasExtended)
        return "DECTED " + base;
    if (tCap == 3 && hasExtended)
        return "TECQED " + base;
    if (tCap == 6 && hasExtended)
        return "6EC7ED " + base;
    return base;
}

std::size_t
Bch::powerOf(std::size_t combined) const
{
    return combined < k ? r + combined : combined - k;
}

std::size_t
Bch::combinedOf(std::size_t power) const
{
    if (power < r)
        return k + power;
    if (power < r + k)
        return power - r;
    return kNpos;
}

BitVec
Bch::encodeReference(const BitVec &data) const
{
    assert(data.size() == k);

    // Systematic LFSR division: remainder of d(x) * x^r mod g(x).
    std::uint64_t genLow = 0;
    for (std::size_t j = 0; j < r; ++j) {
        if (gen[j])
            genLow |= std::uint64_t{1} << j;
    }
    const std::uint64_t mask = r == 63
        ? ~std::uint64_t{0} >> 1 : (std::uint64_t{1} << r) - 1;

    std::uint64_t rem = 0;
    for (std::size_t i = k; i-- > 0;) {
        const bool fb = data.get(i) ^ ((rem >> (r - 1)) & 1);
        rem = (rem << 1) & mask;
        if (fb)
            rem ^= genLow;
    }

    BitVec check(checkBits());
    bool overall = data.parity();
    for (std::size_t j = 0; j < r; ++j) {
        const bool bit = (rem >> j) & 1;
        check.set(j, bit);
        overall ^= bit;
    }
    if (hasExtended)
        check.set(r, overall); // make the full codeword even parity
    return check;
}

void
Bch::buildSlicer()
{
    // checkBits() = r (+1) <= 64, so the sliced image fits one word.
    useSliced = checkBits() <= 64;
    if (!useSliced)
        return;

    std::uint64_t genLow = 0;
    for (std::size_t j = 0; j < r; ++j) {
        if (gen[j])
            genLow |= std::uint64_t{1} << j;
    }
    const std::uint64_t mask = r == 63
        ? ~std::uint64_t{0} >> 1 : (std::uint64_t{1} << r) - 1;

    // Column d is x^(r+d) mod g(x), stepped up from x^r mod g =
    // genLow by multiply-by-x with reduction; the extended bit is
    // the data bit's own parity contribution XOR its remainder's.
    std::vector<BitVec> columns(k, BitVec(checkBits()));
    std::uint64_t rem = genLow;
    for (std::size_t d = 0; d < k; ++d) {
        std::uint64_t col = rem;
        if (hasExtended) {
            col |= std::uint64_t{
                       1 ^ (unsigned(std::popcount(rem)) & 1)}
                << r;
        }
        columns[d].setWord(0, col);
        const bool hi = (rem >> (r - 1)) & 1;
        rem = (rem << 1) & mask;
        if (hi)
            rem ^= genLow;
    }
    slicer.build(columns);
}

BitVec
Bch::encode(const BitVec &data) const
{
    if (!useSliced)
        return encodeReference(data);
    BitVec check(checkBits());
    check.setWord(0, slicer.applyWord(data));
    return check;
}

void
Bch::encodeInto(const BitVec &data, BitVec &out) const
{
    if (!useSliced) {
        out = encodeReference(data);
        return;
    }
    assert(data.size() == k);
    if (out.size() != checkBits())
        out = BitVec(checkBits());
    out.setWord(0, slicer.applyWord(data));
}

Bch::Action
Bch::solve(const std::vector<std::uint32_t> &syn, bool overallMismatch) const
{
    Action action;

    bool allZero = true;
    for (const std::uint32_t s : syn) {
        if (s) {
            allZero = false;
            break;
        }
    }
    if (allZero) {
        if (hasExtended && overallMismatch) {
            // Lone flip of the extended parity bit.
            action.correctable = true;
            action.flips.push_back(k + r);
        } else {
            action.correctable = true; // zero errors
        }
        return action;
    }

    // Berlekamp-Massey over GF(2^m): find the minimal LFSR C(x)
    // generating the syndrome sequence.
    std::vector<std::uint32_t> C{1}, B{1};
    unsigned L = 0, shift = 1;
    std::uint32_t b = 1;
    for (unsigned i = 0; i < 2 * tCap; ++i) {
        std::uint32_t d = syn[i];
        for (unsigned j = 1; j <= L && j < C.size(); ++j) {
            if (C[j] && i >= j)
                d ^= field->mul(C[j], syn[i - j]);
        }
        if (d == 0) {
            ++shift;
        } else if (2 * L <= i) {
            const std::vector<std::uint32_t> T = C;
            const std::uint32_t coef = field->div(d, b);
            if (C.size() < B.size() + shift)
                C.resize(B.size() + shift, 0);
            for (std::size_t j = 0; j < B.size(); ++j)
                C[j + shift] ^= field->mul(coef, B[j]);
            L = i + 1 - L;
            B = T;
            b = d;
            shift = 1;
        } else {
            const std::uint32_t coef = field->div(d, b);
            if (C.size() < B.size() + shift)
                C.resize(B.size() + shift, 0);
            for (std::size_t j = 0; j < B.size(); ++j)
                C[j + shift] ^= field->mul(coef, B[j]);
            ++shift;
        }
    }

    if (L > tCap)
        return action; // beyond designed capability: uncorrectable

    // Chien search over the shortened codeword positions: error at
    // power p iff C(alpha^-p) == 0. Incremental evaluation keeps the
    // terms C[j] * alpha^(-p*j) and multiplies by alpha^-j per step.
    std::vector<std::uint32_t> terms(L + 1, 0);
    std::vector<std::uint32_t> steps(L + 1, 0);
    for (unsigned j = 0; j <= L; ++j) {
        terms[j] = j < C.size() ? C[j] : 0;
        steps[j] = field->alphaPow(-static_cast<std::int64_t>(j));
    }
    std::vector<std::size_t> powers;
    for (std::size_t p = 0; p < k + r; ++p) {
        std::uint32_t val = 0;
        for (unsigned j = 0; j <= L; ++j)
            val ^= terms[j];
        if (val == 0)
            powers.push_back(p);
        for (unsigned j = 1; j <= L; ++j)
            terms[j] = field->mul(terms[j], steps[j]);
    }
    if (powers.size() != L)
        return action; // locator roots invalid: uncorrectable

    for (const std::size_t p : powers)
        action.flips.push_back(combinedOf(p));

    if (hasExtended) {
        // Parity bookkeeping: L codeword flips change overall parity
        // by L mod 2. A residual mismatch implicates the extended
        // parity bit itself; that is one more error we can absorb
        // only if we are below capability.
        const bool expected = L & 1;
        if (overallMismatch != expected) {
            if (L >= tCap) {
                action.flips.clear();
                return action; // t+1 (or more) errors: detect only
            }
            action.flips.push_back(k + r);
        }
    }
    action.correctable = true;
    return action;
}

DecodeResult
Bch::decode(BitVec &data, BitVec &check) const
{
    if (data.size() != k || check.size() != checkBits())
        fatal("Bch::decode: wrong operand widths");

    // Syndromes S_j = c(alpha^j), j = 1..2t, over the set bits.
    std::vector<std::uint32_t> syn(2 * tCap, 0);
    bool overall = false;
    const auto accumulate = [&](std::size_t power) {
        for (unsigned j = 1; j <= 2 * tCap; ++j) {
            syn[j - 1] ^= field->alphaPow(
                static_cast<std::int64_t>(j) *
                static_cast<std::int64_t>(power));
        }
    };
    for (const std::size_t i : data.onesPositions()) {
        accumulate(powerOf(i));
        overall = !overall;
    }
    for (const std::size_t j : check.onesPositions()) {
        if (j < r)
            accumulate(j);
        overall = !overall;
    }

    bool synNonZero = false;
    for (const std::uint32_t s : syn) {
        if (s) {
            synNonZero = true;
            break;
        }
    }

    DecodeResult result;
    result.syndromeNonZero = synNonZero;
    result.globalParityMismatch = hasExtended && overall;

    const Action action = solve(syn, hasExtended && overall);
    if (!action.correctable) {
        result.status = DecodeStatus::DetectedUncorrectable;
        return result;
    }
    if (action.flips.empty()) {
        result.status = DecodeStatus::NoError;
        return result;
    }
    for (const std::size_t pos : action.flips) {
        if (pos < k)
            data.flip(pos);
        else
            check.flip(pos - k);
    }
    result.status = DecodeStatus::Corrected;
    result.correctedBits = static_cast<unsigned>(action.flips.size());
    return result;
}

DecodeResult
Bch::probe(const std::vector<std::size_t> &errorPositions) const
{
    std::vector<std::uint32_t> syn(2 * tCap, 0);
    bool overall = false;
    for (const std::size_t pos : errorPositions) {
        overall = !overall;
        if (pos == k + r && hasExtended)
            continue; // extended bit: parity only
        if (pos >= k + r)
            fatal("Bch::probe: position %zu out of codeword", pos);
        const std::size_t power = powerOf(pos);
        for (unsigned j = 1; j <= 2 * tCap; ++j) {
            syn[j - 1] ^= field->alphaPow(
                static_cast<std::int64_t>(j) *
                static_cast<std::int64_t>(power));
        }
    }

    bool synNonZero = false;
    for (const std::uint32_t s : syn) {
        if (s) {
            synNonZero = true;
            break;
        }
    }

    DecodeResult result;
    result.syndromeNonZero = synNonZero;
    result.globalParityMismatch = hasExtended && overall;

    const Action action = solve(syn, hasExtended && overall);
    if (!action.correctable) {
        result.status = DecodeStatus::DetectedUncorrectable;
        return result;
    }

    // Omniscient comparison of believed flips vs actual errors.
    std::vector<std::size_t> believed = action.flips;
    std::vector<std::size_t> actual = errorPositions;
    std::sort(believed.begin(), believed.end());
    std::sort(actual.begin(), actual.end());
    if (believed == actual) {
        if (actual.empty()) {
            result.status = DecodeStatus::NoError;
        } else {
            result.status = DecodeStatus::Corrected;
            result.correctedBits =
                static_cast<unsigned>(believed.size());
        }
    } else {
        result.status = DecodeStatus::Miscorrected;
        result.correctedBits = static_cast<unsigned>(believed.size());
    }
    return result;
}

} // namespace killi
