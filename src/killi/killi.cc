#include "killi/killi.hh"

#include "common/log.hh"

namespace killi
{

namespace
{
constexpr std::size_t kDataBits = 512;
/** LV-vulnerable cells per Killi line: payload + folded parity. */
constexpr std::size_t kPhysBits = kDataBits + 4;
} // namespace

#ifdef KILLI_CHECK_INVARIANTS
#define KILLI_CHECK_INV(lineId, where) checkInvariants(lineId, where)
#else
#define KILLI_CHECK_INV(lineId, where) ((void)0)
#endif

void
KilliProtection::checkInvariants(std::size_t lineId,
                                 const char *where) const
{
#ifndef KILLI_CHECK_INVARIANTS
    (void)lineId;
    (void)where;
#else
    // Every live ECC-cache entry must protect a line that still
    // needs it: training (b'01), known-faulty (b'10), or dirty in
    // write-back mode (§5.6.1). An entry pointing at a clean b'00 or
    // b'11 line means a missed invalidation — silently wasted
    // ECC-cache capacity and bogus contention.
    for (const EccEntry &e : ecc->entries()) {
        if (!e.valid)
            continue;
        const Dfh d = state[e.l2Line];
        if (d != Dfh::Initial && d != Dfh::Stable1 &&
            !(p.writebackMode && dirtyLine[e.l2Line]))
            panic("Killi invariant (%s): line %zu in %s holds an "
                  "ECC-cache entry",
                  where, e.l2Line, dfhName(d).c_str());
    }
    // The accessed line: b'11 must never be allocatable.
    if (state[lineId] == Dfh::Disabled && canAllocate(lineId))
        panic("Killi invariant (%s): disabled line %zu passes "
              "canAllocate",
              where, lineId);
#endif
}

KilliProtection::KilliProtection(const FaultMap &fault_map,
                                 const KilliParams &params)
    : faults(fault_map), p(params),
      fineParity(kDataBits, params.segments, params.interleavedParity),
      foldedParity(kDataBits, params.groups, params.interleavedParity),
      secded(makeCode(CodeKind::Secded, kDataBits))
{
    if (params.segments % params.groups != 0)
        fatal("Killi: groups %u must divide segments %u",
              params.groups, params.segments);
    if (params.dectedStable || params.writebackMode)
        strongCode = makeCode(CodeKind::Dected, kDataBits);
}

std::string
KilliProtection::name() const
{
    std::string n = "Killi(1:" + std::to_string(p.ratio) + ")";
    if (p.dectedStable)
        n += "+DECTED";
    if (p.invertedWriteCheck)
        n += "+invW";
    if (p.writebackMode)
        n += "+WB";
    return n;
}

void
KilliProtection::attach(L2Backdoor &backdoor, const CacheGeometry &geom)
{
    ProtectionScheme::attach(backdoor, geom);
    const std::size_t entries =
        std::max<std::size_t>(p.eccCacheAssoc,
                              geom.numLines() / p.ratio);
    ecc = std::make_unique<EccCache>(entries, p.eccCacheAssoc,
                                     geom.assoc);
    state.assign(geom.numLines(), Dfh::Initial);
    dirtyLine.assign(geom.numLines(), false);
    ecc->setTrace(trace, [this] { return tickNow(); });
}

void
KilliProtection::reset()
{
    // Voltage change / reboot: relearn everything (paper §2.4).
    std::fill(state.begin(), state.end(), Dfh::Initial);
    std::fill(dirtyLine.begin(), dirtyLine.end(), false);
    ecc->clear();
}

void
KilliProtection::setTrace(TraceSink *sink)
{
    ProtectionScheme::setTrace(sink);
    if (ecc)
        ecc->setTrace(sink, [this] { return tickNow(); });
}

void
KilliProtection::addTimeseriesSources(StatTimeseries &ts)
{
    ts.addSource("ecc_occupancy", [this] {
        return ecc ? double(ecc->validEntries()) /
                         double(ecc->numEntries())
                   : 0.0;
    });
    // Protection-grade mix over time: line counts per DFH state.
    // Sources are polled in registration order within a snapshot
    // (see StatTimeseries::addSource), so the first DFH column
    // refreshes the O(numLines) histogram and the rest read the
    // memoized copy instead of rescanning per column.
    ts.addSource("dfh_b00", [this] {
        tsHist = dfhHistogram();
        return double(tsHist[0b00]);
    });
    ts.addSource("dfh_b01", [this] { return double(tsHist[0b01]); });
    ts.addSource("dfh_b10", [this] { return double(tsHist[0b10]); });
    ts.addSource("dfh_b11", [this] { return double(tsHist[0b11]); });
}

bool
KilliProtection::canAllocate(std::size_t lineId) const
{
    switch (state[lineId]) {
      case Dfh::Disabled:
        return false;
      case Dfh::Stable1:
        // A known-faulty line is only usable when its SECDED
        // checkbits can be hosted without killing another protected
        // line — the "(b)" capacity effect of §5.2: small ECC caches
        // leave part of the single-fault population unusable.
        return ecc->canHostWithoutEviction(lineId);
      case Dfh::Stable0:
      case Dfh::Initial:
        return true;
    }
    return false;
}

int
KilliProtection::allocPriority(std::size_t lineId) const
{
    if (!p.allocPriorityEnabled)
        return 0;
    switch (state[lineId]) {
      case Dfh::Initial:
        return 2;
      case Dfh::Stable0:
        return 1;
      case Dfh::Stable1:
        return 0;
      case Dfh::Disabled:
        break;
    }
    return -1;
}

void
KilliProtection::noteTransition(std::size_t lineId, Dfh from, Dfh to,
                                const char *trigger)
{
    if (from == to)
        return;
    KTRACE(trace, tickNow(), TraceCat::Dfh, "dfh.transition",
           {"line", lineId}, {"from", dfhCName(from)},
           {"to", dfhCName(to)}, {"trigger", trigger});
    const auto f = static_cast<std::size_t>(from);
    const auto t = static_cast<std::size_t>(to);
    if (!kDfhEdges[f][t]) {
        panic("Killi: illegal DFH transition %s -> %s (%s)",
              dfhName(from).c_str(), dfhName(to).c_str(), trigger);
    }
    ++counts.transitions[f][t];
}

const BlockCode &
KilliProtection::codeFor(Dfh lineState, bool isDirty) const
{
    // §5.2: trained faulty lines may carry DECTED in the freed
    // parity bits. §5.6.1: dirty b'10 lines always do, so that dirty
    // data matches the failure probability of a safe-voltage SECDED
    // cache; dirty b'00 lines carry plain SECDED.
    if (lineState == Dfh::Stable1 &&
        (p.dectedStable || (p.writebackMode && isDirty))) {
        return *strongCode;
    }
    return *secded;
}

void
KilliProtection::reserveEccEntry(std::size_t lineId)
{
    // Entry presence models the ECC cache's capacity and contention.
    // Its payload (checkbits, fine-parity overflow) is a function of
    // the line's data that probeLine derives when it needs it.
    if (ecc->find(lineId))
        return;
    std::size_t evictedLine = EccCache::npos;
    ecc->allocate(lineId, evictedLine);
    if (evictedLine != EccCache::npos) {
        // A disjoint line loses its checkbits and cannot stay
        // resident (§4.3): the host must drop it. The host callback
        // re-enters this scheme (onEvict/onInvalidate of the dropped
        // line), after the new entry is in place.
        ++counts.eccDrops;
        host->invalidateLine(evictedLine);
    }
}

Cycle
KilliProtection::onFill(std::size_t lineId, const BitVec & /*data*/)
{
    KILLI_CHECK_INV(lineId, "onFill");
    const Dfh d = state[lineId];
    if (d == Dfh::Disabled)
        panic("Killi: fill into a disabled line");
#ifdef KILLI_CHECK_INVARIANTS
    if (!canAllocate(lineId))
        panic("Killi invariant (onFill): fill into an unallocatable "
              "line %zu (%s)", lineId, dfhName(d).c_str());
#endif

    dirtyLine[lineId] = false; // fills install clean data
    if (d == Dfh::Initial || d == Dfh::Stable1)
        reserveEccEntry(lineId);

    Cycle cost = 0;
    if (d == Dfh::Initial && p.invertedWriteCheck) {
        // §5.6.2: write -> read -> write-inverted -> read exposes
        // every stuck cell regardless of the stored polarity. Two
        // extra array operations; classification is then exact.
        ++counts.invertedChecks;
        cost += 2;
        const unsigned faultsSeen =
            faults.countFaults(lineId, kPhysBits);
        const unsigned capability = p.dectedStable
            ? strongCode->correctsUpTo() : secded->correctsUpTo();
        Dfh next;
        if (faultsSeen == 0)
            next = Dfh::Stable0;
        else if (faultsSeen <= capability)
            next = Dfh::Stable1;
        else
            next = Dfh::Disabled;
        noteTransition(lineId, d, next, "inverted_write");
        state[lineId] = next;
        if (next == Dfh::Stable0 || next == Dfh::Disabled)
            ecc->invalidate(lineId);
        if (next == Dfh::Disabled)
            host->invalidateLine(lineId);
    }
    return cost;
}

void
KilliProtection::onWriteHit(std::size_t lineId, const BitVec & /*data*/)
{
    KILLI_CHECK_INV(lineId, "onWriteHit");
    const Dfh d = state[lineId];
    if (p.writebackMode) {
        // §5.6.1: from this store until eviction the line holds the
        // only copy; every DFH state gets checkbits on demand.
        dirtyLine[lineId] = true;
        reserveEccEntry(lineId);
        return;
    }
    if (d == Dfh::Initial || d == Dfh::Stable1)
        reserveEccEntry(lineId);
}

KilliProtection::Probes
KilliProtection::probeLine(std::size_t lineId, const BitVec &data,
                           Dfh current, bool isDirty) const
{
    Probes probes;
    if (faults.clean(lineId))
        return probes; // the common fault-free fast path
    foldedParity.encodeInto(data, foldedScratch);
    faults.visibleErrorsInto(lineId, data, foldedScratch, errsScratch);
    if (errsScratch.empty())
        return probes; // every fault masked by the stored values

    // Split into payload errors and folded-parity-cell errors; the
    // latter map onto a fine parity bit of the group they encode
    // during training (any representative of group g works — the
    // group's XOR flips either way) and directly onto group g after.
    const SegmentedParity &layout =
        current == Dfh::Initial ? fineParity : foldedParity;
    const std::size_t perGroup = p.segments / p.groups;
    std::vector<std::size_t> &parityProbe = parityScratch;
    std::vector<std::size_t> &eccProbe = eccScratch;
    parityProbe.clear();
    eccProbe.clear();
    for (const std::size_t pos : errsScratch) {
        if (pos < kDataBits) {
            parityProbe.push_back(pos);
            eccProbe.push_back(pos);
            probes.dataCorrupt = true;
        } else if (current == Dfh::Initial) {
            const std::size_t g = pos - kDataBits;
            const std::size_t fine =
                p.interleavedParity ? g : g * perGroup;
            parityProbe.push_back(kDataBits + fine);
        } else {
            parityProbe.push_back(pos); // group g directly
        }
    }
    layout.probeInto(parityProbe, parityCheckScratch);
    const ParityCheck &pc = parityCheckScratch;
    probes.sp = pc.ok() ? SParity::Ok
        : pc.single() ? SParity::Single : SParity::Multi;

    if (current == Dfh::Initial || current == Dfh::Stable1 ||
        isDirty) {
        const BlockCode &code = codeFor(current, isDirty);
        const DecodeResult dr = code.probe(eccProbe);
        probes.synNonZero = dr.syndromeNonZero;
        probes.gpMismatch = dr.globalParityMismatch;
        probes.eccStatus = dr.status;
    }
    return probes;
}

DfhDecision
KilliProtection::decideDirty(Dfh current, const Probes &probes) const
{
    // §5.6.1: the dirty copy is the only copy — the checkbits in the
    // ECC cache are the sole recovery path; there is no refetch.
    switch (probes.eccStatus) {
      case DecodeStatus::NoError:
        if (probes.sp == SParity::Ok)
            return {current, DfhAction::SendClean};
        // Parity sees what the ECC cannot: the data is gone.
        return {Dfh::Disabled, DfhAction::ErrorMiss};
      case DecodeStatus::Corrected:
      case DecodeStatus::Miscorrected:
        // A b'00 line revealing a correctable error is reclassified
        // as faulty; its next store installs DECTED checkbits.
        return {Dfh::Stable1, DfhAction::CorrectAndSend};
      case DecodeStatus::DetectedUncorrectable:
        return {Dfh::Disabled, DfhAction::ErrorMiss};
    }
    return {Dfh::Disabled, DfhAction::ErrorMiss};
}

DfhDecision
KilliProtection::decideStable1Strong(const Probes &probes) const
{
    // §5.2 DECTED-protected trained lines: decisions follow the
    // strong decoder's outcome rather than the SECDED Table 2 rows.
    switch (probes.eccStatus) {
      case DecodeStatus::NoError:
        if (probes.sp == SParity::Ok)
            return {Dfh::Stable0, DfhAction::SendClean, true};
        // Parity sees an error the strong code does not: metadata
        // cell fault or beyond-capability pattern. Disable.
        return {Dfh::Disabled, DfhAction::ErrorMiss};
      case DecodeStatus::Corrected:
      case DecodeStatus::Miscorrected:
        // The decoder believes it corrected; Miscorrected is the
        // omniscient label and surfaces as an SDC in the oracle.
        return {Dfh::Stable1, DfhAction::CorrectAndSend};
      case DecodeStatus::DetectedUncorrectable:
        return {Dfh::Disabled, DfhAction::ErrorMiss};
    }
    return {Dfh::Disabled, DfhAction::ErrorMiss};
}

AccessResult
KilliProtection::onReadHit(std::size_t lineId, const BitVec &data)
{
    KILLI_CHECK_INV(lineId, "onReadHit");
    ++counts.reads;
    const Dfh d = state[lineId];
    if (d == Dfh::Disabled)
        panic("Killi: read hit on a disabled line");

    const bool isDirty = p.writebackMode && dirtyLine[lineId];
    const Probes probes = probeLine(lineId, data, d, isDirty);

    DfhDecision dec;
    if (isDirty) {
        dec = decideDirty(d, probes);
    } else {
        switch (d) {
      case Dfh::Stable0:
        dec = dfhOnStable0(probes.sp);
        break;
      case Dfh::Initial:
        if (p.dectedStable && probes.synNonZero &&
            !probes.gpMismatch) {
            // §5.2: the SECDED double-error signature classifies
            // the line as 2-fault; DECTED keeps it enabled. The
            // current content is uncorrectable -> refetch.
            dec = {Dfh::Stable1, DfhAction::ErrorMiss};
        } else {
            dec = dfhOnInitial(probes.sp, probes.synNonZero,
                               probes.gpMismatch);
        }
        break;
      case Dfh::Stable1:
        dec = p.dectedStable
            ? decideStable1Strong(probes)
            : dfhOnStable1(probes.sp, probes.synNonZero,
                           probes.gpMismatch);
        break;
      case Dfh::Disabled: // rejected above
      default:
        dec = {Dfh::Disabled, DfhAction::ErrorMiss};
        break;
        }
    }

    // A believed single-error correction whose syndrome points
    // outside the codeword is uncorrectable in hardware too.
    if (dec.action == DfhAction::CorrectAndSend &&
        probes.eccStatus == DecodeStatus::DetectedUncorrectable) {
        dec.action = DfhAction::ErrorMiss;
        dec.next = Dfh::Disabled;
    }

    noteTransition(lineId, d, dec.next, "read_hit");
    state[lineId] = dec.next;
    // Free the entry eagerly on disable too: the host's follow-up
    // onInvalidate would release it anyway, but a driver that stops
    // after this hook must still observe a consistent structure.
    if ((dec.freeEccEntry || dec.next == Dfh::Disabled) && !isDirty)
        ecc->invalidate(lineId);

    AccessResult res;
    // Parity (and the hidden ECC-cache lookup) overlap the data
    // access; latency is exposed only when error handling runs.
    if (probes.dataCorrupt || probes.sp != SParity::Ok ||
        probes.synNonZero || probes.gpMismatch) {
        res.extraLatency = p.codecLatency;
    }
    switch (dec.action) {
      case DfhAction::SendClean:
        // Delivering the stored word untouched: any visible payload
        // error that slipped past parity+ECC is a silent corruption.
        res.sdc = probes.dataCorrupt;
        break;
      case DfhAction::CorrectAndSend:
        ++counts.corrections;
        KTRACE(trace, tickNow(), TraceCat::Error, "error.correct",
               {"line", lineId}, {"dfh", dfhCName(dec.next)});
        res.extraLatency += p.correctionLatency;
        // probe() is omniscient: Miscorrected means the decoder
        // "fixed" the wrong bit(s).
        res.sdc = probes.eccStatus == DecodeStatus::Miscorrected;
        break;
      case DfhAction::ErrorMiss:
        ++counts.errorMisses;
        KTRACE(trace, tickNow(), TraceCat::Error, "error.detect",
               {"line", lineId}, {"dfh", dfhCName(dec.next)});
        res.errorInducedMiss = true;
        break;
    }
    return res;
}

WritebackOutcome
KilliProtection::onWriteback(std::size_t lineId, const BitVec &data)
{
    WritebackOutcome out;
    if (!p.writebackMode)
        return out;
    KILLI_CHECK_INV(lineId, "onWriteback");
    const Dfh d = state[lineId];
    const Probes probes = probeLine(lineId, data, d, /*isDirty=*/true);
    dirtyLine[lineId] = false;
    switch (probes.eccStatus) {
      case DecodeStatus::NoError:
        out.clean = probes.sp == SParity::Ok && !probes.dataCorrupt;
        break;
      case DecodeStatus::Corrected:
        out.clean = true;
        out.extraCost = p.correctionLatency;
        ++counts.corrections;
        break;
      case DecodeStatus::Miscorrected:
      case DecodeStatus::DetectedUncorrectable:
        out.clean = false;
        break;
    }
    // §5.6.1: the writeback closes the line's on-demand protection
    // window, so the probe's verdict must land in the DFH (same
    // decision table as a dirty read hit) and the ECC-cache entry a
    // dirty b'00 line acquired at its store must be released — a
    // live entry on a clean b'00 line is stranded capacity and trips
    // checkInvariants on the next hook. An uncorrectable dirty
    // writeback disables the line, mirroring decideDirty: the only
    // copy is unrecoverable, the host sees !clean and drops it.
    if (d == Dfh::Disabled) {
        // A dirty read hit already disabled the line; the dirty copy
        // kept the entry pinned until now. Stay disabled — a
        // writeback never resurrects a line — and release the entry.
        ecc->invalidate(lineId);
        return out;
    }
    const DfhDecision dec = decideDirty(d, probes);
    noteTransition(lineId, d, dec.next, "writeback");
    state[lineId] = dec.next;
    if (dec.next != Dfh::Initial && dec.next != Dfh::Stable1)
        ecc->invalidate(lineId);
    return out;
}

Cycle
KilliProtection::onEvict(std::size_t lineId, const BitVec &data)
{
    KILLI_CHECK_INV(lineId, "onEvict");
    if (state[lineId] != Dfh::Initial || !p.evictionTraining)
        return 0;

    // §4.4: read the dying line out once and classify it so the DFH
    // bits (which persist across data blocks) are trained.
    ++counts.evictTrainings;
    const Probes probes = probeLine(lineId, data, Dfh::Initial);
    DfhDecision dec;
    if (p.dectedStable && probes.synNonZero && !probes.gpMismatch) {
        dec = {Dfh::Stable1, DfhAction::ErrorMiss};
    } else {
        dec = dfhOnInitial(probes.sp, probes.synNonZero,
                           probes.gpMismatch);
    }
    noteTransition(lineId, Dfh::Initial, dec.next, "evict_training");
    state[lineId] = dec.next;
    // The data is leaving: only the learned state matters. The host's
    // onInvalidate releases the ECC entry; drop it eagerly when the
    // trained state no longer warrants one (a dirty line keeps its
    // checkbits for the writeback verification that follows).
    if ((dec.next == Dfh::Stable0 || dec.next == Dfh::Disabled) &&
        !dirtyLine[lineId]) {
        ecc->invalidate(lineId);
    }
    return p.evictReadoutCost;
}

void
KilliProtection::onInvalidate(std::size_t lineId)
{
    dirtyLine[lineId] = false;
    ecc->invalidate(lineId);
}

void
KilliProtection::onTouch(std::size_t lineId)
{
    // §4.4 coordinated replacement: an L2 MRU promotion promotes the
    // protecting ECC entry as well.
    if (!p.coordinatedReplacement)
        return;
    if (state[lineId] != Dfh::Stable0 ||
        (p.writebackMode && dirtyLine[lineId])) {
        ecc->touch(lineId);
    }
}

void
KilliProtection::onMaintenance()
{
    // Footnote 7: disabled lines may have been the victims of
    // transient upsets rather than persistent LV faults; a scrubber
    // pass releases them for reclassification. Lines with real
    // multi-bit fault populations re-disable on their first use.
    std::size_t reclaimed = 0;
    for (std::size_t id = 0; id < state.size(); ++id) {
        if (state[id] == Dfh::Disabled) {
            // Route through noteTransition like every other DFH
            // edge: the per-line dfh.transition trace event and the
            // b'11 -> b'01 edge count come with it.
            noteTransition(id, Dfh::Disabled, Dfh::Initial, "scrub");
            state[id] = Dfh::Initial;
            ++counts.scrubReclaims;
            ++reclaimed;
        }
    }
    if (reclaimed) {
        KTRACE(trace, tickNow(), TraceCat::Dfh, "dfh.scrub_reclaim",
               {"lines", reclaimed});
    }
}

std::size_t
KilliProtection::usableLines() const
{
    std::size_t usable = 0;
    for (const Dfh d : state)
        usable += d != Dfh::Disabled;
    return usable;
}

std::array<std::size_t, 4>
KilliProtection::dfhHistogram() const
{
    std::array<std::size_t, 4> hist{};
    for (const Dfh d : state)
        ++hist[static_cast<std::size_t>(d)];
    return hist;
}

} // namespace killi
