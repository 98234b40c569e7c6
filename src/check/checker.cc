#include "check/checker.hh"

#include <cstdarg>
#include <cstdio>
#include <memory>

#include "baselines/precharacterized.hh"
#include "check/oracle.hh"
#include "common/log.hh"
#include "ecc/codec_factory.hh"
#include "ecc/parity.hh"
#include "fault/fault_map.hh"
#include "fault/fault_model.hh"
#include "fault/scenario_spec.hh"
#include "killi/killi.hh"
#include "sim/golden.hh"

namespace killi::check
{

namespace
{

constexpr std::size_t kDataBits = 512;
/** Killi's LV footprint: payload + 4 folded parity cells. */
constexpr std::size_t kKilliPhysBits = kDataBits + 4;
/** Shared fault-map width (wide enough for every scheme). */
constexpr std::size_t kMapBits = 720;
/** Die seed for the sampled (background) fault population; both
 *  harnesses must construct identical maps. */
constexpr std::uint64_t kDieSeed = 1;

/**
 * The fault-model spec backing a harness map. With no background
 * model the scenario degrades to an iid spec at 1.0xVDD where no
 * sampled cell is active — bit-identical to the planted-faults-only
 * maps every pre-existing corpus seed was checked against.
 */
ScenarioSpec
harnessSpec(const Scenario &sc)
{
    if (sc.faultModel)
        return *sc.faultModel;
    ScenarioSpec spec;
    spec.seed = kDieSeed;
    spec.voltage = 1.0;
    return spec;
}

std::string
fmt(const char *f, ...)
{
    char buf[512];
    va_list args;
    va_start(args, f);
    std::vsnprintf(buf, sizeof(buf), f, args);
    va_end(args);
    return buf;
}

/**
 * One protection scheme plus the harness-side mirror of everything
 * the host L2 would track for it: residency, dirty bits, the stored
 * (golden) payload, and — for the baseline — the materialized
 * checkbit store. Implements L2Backdoor so Killi's ECC-cache
 * contention drops reach us exactly as they reach the real host.
 */
class SchemeHarness : public L2Backdoor
{
  public:
    SchemeHarness(const Scenario &sc, bool killiScheme,
                  CheckResult &out, std::size_t maxViolations)
        : scenario(sc), isKilli(killiScheme), result(out),
          cap(maxViolations),
          faultsOwned(FaultModel::fromScenario(harnessSpec(sc))
                          ->buildMap(sc.numLines, kMapBits)),
          faults(*faultsOwned),
          fineLayout(kDataBits, sc.params.segments,
                     sc.params.interleavedParity),
          foldedLayout(kDataBits, sc.params.groups,
                       sc.params.interleavedParity),
          secded(makeCode(CodeKind::Secded, kDataBits)),
          strong(makeCode(CodeKind::Dected, kDataBits))
    {
        // buildMap() already parked the map at the spec's operating
        // point (1.0xVDD when no background model, i.e. planted
        // faults only); planted cells sit on top of whatever the
        // model sampled and are active at any voltage.
        for (const PlantedFault &f : sc.faults)
            faults.plantFault(f.line, f.bit, f.stuck);

        if (isKilli) {
            killi = std::make_unique<KilliProtection>(faults,
                                                      sc.params);
            scheme = killi.get();
        } else {
            secdedScheme = makeSecdedLine(faults);
            scheme = secdedScheme.get();
        }
        scheme->attach(*this, sc.geometry());

        resident.assign(sc.numLines, false);
        dirty.assign(sc.numLines, false);
        stored.assign(sc.numLines, BitVec(kDataBits));
    }

    void setTrace(TraceSink *sink)
    {
        trace = sink;
        scheme->setTrace(sink);
    }

    void
    apply(const TraceOp &op, std::size_t idx)
    {
        opIndex = idx;
        ++tick;
        KTRACE(trace, tick, TraceCat::Check, "check.op",
               {"index", idx}, {"kind", opKindName(op.kind)},
               {"line", op.line},
               {"scheme", isKilli ? "killi" : "secded"});
        switch (op.kind) {
          case OpKind::Fill:
            doFill(op.line);
            break;
          case OpKind::Read:
            doRead(op.line);
            break;
          case OpKind::Write:
            doWrite(op.line);
            break;
          case OpKind::Evict:
            doEvict(op.line);
            break;
          case OpKind::Touch:
            if (resident[op.line])
                scheme->onTouch(op.line);
            else
                skip();
            break;
          case OpKind::Scrub:
            doScrub();
            break;
          case OpKind::Transient:
            if (resident[op.line])
                faults.injectTransient(op.line, op.bit);
            else
                skip();
            break;
          case OpKind::Flush:
            doFlush(op.line);
            break;
        }
        if (isKilli)
            checkStructure(op.line);
    }

    void
    finishCoverage(CheckCoverage &cov) const
    {
        const ProtectionStats &st = scheme->stats();
        cov.reads += st.reads;
        cov.corrections += st.corrections;
        cov.errorMisses += st.errorMisses;
        cov.evictTrainings += st.evictTrainings;
        cov.eccDrops += st.eccDrops;
        cov.invertedChecks += st.invertedChecks;
        cov.expectedSdc += expectedSdc;
        cov.skippedOps += skippedOps;
    }

  private:
    // ---- L2Backdoor: the scheme dropped a line it can no longer
    // protect. Mirrors L2Cache::invalidateLine exactly: classify the
    // dying data, flush if dirty, then invalidate. (No oracle checks
    // here — this runs re-entrantly from inside a scheme hook; the
    // structural pass after the op validates the end state.)
    void
    invalidateLine(std::size_t lineId) override
    {
        if (!resident[lineId])
            return;
        scheme->onEvict(lineId, stored[lineId]);
        if (dirty[lineId]) {
            scheme->onWriteback(lineId, stored[lineId]);
            dirty[lineId] = false;
        }
        resident[lineId] = false;
        scheme->onInvalidate(lineId);
    }

    Tick now() const override { return tick; }

    void
    report(const std::string &message)
    {
        if (result.violations.size() >= cap)
            return;
        result.violations.push_back(
            {opIndex, isKilli ? "killi" : "secded", message});
    }

    void skip() { ++skippedOps; }

    // ---- independent signal computation -------------------------

    /** Recompute Killi's probe signals from the fault overlay alone;
     *  fills @p payloadErrs with the visible payload flips. */
    OracleProbe
    killiProbe(std::size_t lineId, Dfh state, bool isDirty,
               std::vector<std::size_t> &payloadErrs) const
    {
        OracleProbe probe;
        payloadErrs.clear();
        const BitVec foldedBits = foldedLayout.encode(stored[lineId]);
        const std::vector<std::size_t> errs =
            faults.visibleErrors(lineId, stored[lineId], foldedBits);
        if (errs.empty())
            return probe;

        // Stored-parity-cell faults (positions 512..515) map to a
        // representative fine segment of their group during training
        // and to the group directly after — the modeled hardware
        // contract the scheme must follow too.
        const SegmentedParity &layout =
            state == Dfh::Initial ? fineLayout : foldedLayout;
        const std::size_t perGroup =
            scenario.params.segments / scenario.params.groups;
        std::vector<std::size_t> parityProbe;
        for (const std::size_t pos : errs) {
            if (pos < kDataBits) {
                parityProbe.push_back(pos);
                payloadErrs.push_back(pos);
                probe.payloadCorrupt = true;
            } else if (state == Dfh::Initial) {
                const std::size_t g = pos - kDataBits;
                parityProbe.push_back(
                    kDataBits + (scenario.params.interleavedParity
                                     ? g
                                     : g * perGroup));
            } else {
                parityProbe.push_back(pos);
            }
        }
        const ParityCheck pc = layout.probe(parityProbe);
        probe.sp = pc.ok() ? SParity::Ok
            : pc.single() ? SParity::Single : SParity::Multi;

        if (state == Dfh::Initial || state == Dfh::Stable1 ||
            isDirty) {
            // Checkbits live in the nominal-voltage ECC cache: only
            // payload errors enter the ECC view.
            const DecodeResult dr =
                killiCode(state, isDirty).probe(payloadErrs);
            probe.synNonZero = dr.syndromeNonZero;
            probe.gpMismatch = dr.globalParityMismatch;
            probe.eccStatus = dr.status;
        }
        return probe;
    }

    /** The ECC strength the model assumes for a Killi line. */
    const BlockCode &
    killiCode(Dfh state, bool isDirty) const
    {
        if (state == Dfh::Stable1 &&
            (scenario.params.dectedStable ||
             (scenario.params.writebackMode && isDirty))) {
            return *strong;
        }
        return *secded;
    }

    /**
     * Materialize a delivery through the real encode/decode path and
     * return whether the delivered word differs from golden. For
     * Killi @p checkErrs is empty (ECC-cache checkbits cannot
     * fail); for the baseline the in-array checkbits take flips too.
     */
    bool
    materializedSdc(std::size_t lineId, const BlockCode &code,
                    DfhAction action,
                    const std::vector<std::size_t> &payloadErrs,
                    const std::vector<std::size_t> &checkErrs) const
    {
        BitVec data = stored[lineId];
        for (const std::size_t pos : payloadErrs)
            data.flip(pos);
        if (action == DfhAction::CorrectAndSend) {
            BitVec chk = code.encode(stored[lineId]);
            for (const std::size_t pos : checkErrs)
                chk.flip(pos - kDataBits);
            code.decode(data, chk);
        }
        return data != stored[lineId];
    }

    // ---- trace operations ---------------------------------------

    void
    doFill(std::size_t lineId)
    {
        if (resident[lineId]) {
            skip();
            return;
        }
        if (isKilli && killi->dfhOf(lineId) == Dfh::Disabled &&
            scheme->canAllocate(lineId)) {
            report("disabled (b'11) line passes canAllocate");
            return;
        }
        if (!scheme->canAllocate(lineId)) {
            skip();
            return;
        }

        stored[lineId] = golden.data(lineId);
        resident[lineId] = true;
        dirty[lineId] = false;
        faults.clearTransients(lineId); // cells rewritten

        const Dfh before = isKilli ? killi->dfhOf(lineId)
                                   : Dfh::Initial;
        const Cycle cost = scheme->onFill(lineId, stored[lineId]);
        if (!isKilli)
            return;

        if (scenario.params.invertedWriteCheck &&
            before == Dfh::Initial) {
            // §5.6.2: classification at fill is exact — every stuck
            // cell in the line's LV footprint counts, masked or not.
            const unsigned seen =
                faults.countFaults(lineId, kKilliPhysBits);
            const unsigned capability = scenario.params.dectedStable
                ? strong->correctsUpTo() : secded->correctsUpTo();
            const Dfh want = seen == 0 ? Dfh::Stable0
                : seen <= capability ? Dfh::Stable1 : Dfh::Disabled;
            if (killi->dfhOf(lineId) != want)
                report(fmt("inverted-write fill: %u faults -> %s, "
                           "expected %s",
                           seen,
                           dfhName(killi->dfhOf(lineId)).c_str(),
                           dfhName(want).c_str()));
            if (cost != 2)
                report(fmt("inverted-write fill cost %llu != 2",
                           (unsigned long long)cost));
            if (want == Dfh::Disabled && resident[lineId])
                report("inverted-write disable left line resident");
        } else {
            if (killi->dfhOf(lineId) != before)
                report(fmt("fill changed DFH %s -> %s",
                           dfhName(before).c_str(),
                           dfhName(killi->dfhOf(lineId)).c_str()));
            if (cost != 0)
                report(fmt("plain fill charged %llu cycles",
                           (unsigned long long)cost));
        }
    }

    void
    doRead(std::size_t lineId)
    {
        if (!resident[lineId]) {
            skip();
            return;
        }
        if (isKilli)
            readKilli(lineId);
        else
            readBaseline(lineId);
    }

    void
    readKilli(std::size_t lineId)
    {
        const Dfh before = killi->dfhOf(lineId);
        if (before == Dfh::Disabled) {
            report("resident line is disabled (b'11)");
            return;
        }
        const bool isDirty =
            scenario.params.writebackMode && dirty[lineId];
        std::vector<std::size_t> payloadErrs;
        const OracleProbe probe =
            killiProbe(lineId, before, isDirty, payloadErrs);
        const OracleDecision want = oracleReadHit(
            before, isDirty, scenario.params.dectedStable, probe);

        const AccessResult res =
            scheme->onReadHit(lineId, stored[lineId]);

        if (res.errorInducedMiss !=
            (want.action == DfhAction::ErrorMiss))
            report(fmt("read miss=%d, oracle action %s",
                       int(res.errorInducedMiss),
                       want.action == DfhAction::ErrorMiss
                           ? "ErrorMiss" : "deliver"));
        if (res.sdc != want.sdc)
            report(fmt("read sdc=%d, oracle expects %d",
                       int(res.sdc), int(want.sdc)));
        if (killi->dfhOf(lineId) != want.next)
            report(fmt("read transition %s -> %s, oracle says %s",
                       dfhName(before).c_str(),
                       dfhName(killi->dfhOf(lineId)).c_str(),
                       dfhName(want.next).c_str()));

        const bool anySignal = probe.payloadCorrupt ||
            probe.sp != SParity::Ok || probe.synNonZero ||
            probe.gpMismatch;
        Cycle wantLatency =
            anySignal ? scenario.params.codecLatency : 0;
        if (want.action == DfhAction::CorrectAndSend)
            wantLatency += scenario.params.correctionLatency;
        if (res.extraLatency != wantLatency)
            report(fmt("read latency %llu, oracle expects %llu",
                       (unsigned long long)res.extraLatency,
                       (unsigned long long)wantLatency));

        if (want.action != DfhAction::ErrorMiss) {
            // End-to-end: replay the delivery through the real
            // decoder and compare against golden memory.
            const bool sdcNow = materializedSdc(
                lineId, killiCode(before, isDirty), want.action,
                payloadErrs, {});
            if (sdcNow != want.sdc)
                report(fmt("probe/decode divergence: decode sdc=%d, "
                           "probe sdc=%d",
                           int(sdcNow), int(want.sdc)));
            if (want.sdc)
                ++expectedSdc;
        }

        finishRead(lineId, res);
    }

    void
    readBaseline(std::size_t lineId)
    {
        // The stored data changes only at fills and write hits, so
        // the checkbits the baseline derives at probe time are the
        // encoding of it, as killiProbe derives folded parity.
        const std::vector<std::size_t> errs = faults.visibleErrors(
            lineId, stored[lineId], secded->encode(stored[lineId]));
        std::vector<std::size_t> payloadErrs, checkErrs;
        for (const std::size_t pos : errs)
            (pos < kDataBits ? payloadErrs : checkErrs).push_back(pos);

        bool wantMiss = false, wantSdc = false;
        Cycle wantLatency = 0;
        if (!errs.empty()) {
            const DecodeResult dr = secded->probe(errs);
            wantLatency = 1; // codecLatency default
            switch (dr.status) {
              case DecodeStatus::NoError:
                // A non-empty pattern with a zero syndrome is a
                // weight>=4 codeword: the payload is corrupt.
                wantSdc = true;
                break;
              case DecodeStatus::Corrected:
                wantLatency += 1;
                break;
              case DecodeStatus::Miscorrected:
                wantLatency += 1;
                wantSdc = true;
                break;
              case DecodeStatus::DetectedUncorrectable:
                wantMiss = true;
                break;
            }
            if (!wantMiss) {
                const bool sdcNow = materializedSdc(
                    lineId, *secded,
                    dr.status == DecodeStatus::NoError
                        ? DfhAction::SendClean
                        : DfhAction::CorrectAndSend,
                    payloadErrs, checkErrs);
                if (sdcNow != wantSdc)
                    report(fmt("probe/decode divergence: decode "
                               "sdc=%d, probe sdc=%d",
                               int(sdcNow), int(wantSdc)));
                if (wantSdc)
                    ++expectedSdc;
            }
        }

        const AccessResult res =
            scheme->onReadHit(lineId, stored[lineId]);
        if (res.errorInducedMiss != wantMiss)
            report(fmt("read miss=%d, oracle expects %d",
                       int(res.errorInducedMiss), int(wantMiss)));
        if (res.sdc != wantSdc)
            report(fmt("read sdc=%d, oracle expects %d",
                       int(res.sdc), int(wantSdc)));
        if (res.extraLatency != wantLatency)
            report(fmt("read latency %llu, oracle expects %llu",
                       (unsigned long long)res.extraLatency,
                       (unsigned long long)wantLatency));
        finishRead(lineId, res);
    }

    /** Mirror L2Cache::access after onReadHit: an error-induced miss
     *  drops the line immediately; a delivery MRU-promotes it. */
    void
    finishRead(std::size_t lineId, const AccessResult &res)
    {
        if (res.errorInducedMiss) {
            dirty[lineId] = false;
            resident[lineId] = false;
            scheme->onInvalidate(lineId);
        } else {
            scheme->onTouch(lineId);
        }
    }

    void
    doWrite(std::size_t lineId)
    {
        golden.write(lineId); // program-order memory update
        if (!resident[lineId]) {
            skip(); // store miss: no write-allocate mirror needed
            return;
        }
        stored[lineId] = golden.data(lineId);
        faults.clearTransients(lineId); // cells rewritten

        const Dfh before = isKilli ? killi->dfhOf(lineId)
                                   : Dfh::Initial;
        scheme->onWriteHit(lineId, stored[lineId]);
        if (isKilli) {
            if (scenario.params.writebackMode)
                dirty[lineId] = true;
            if (killi->dfhOf(lineId) != before)
                report(fmt("write changed DFH %s -> %s",
                           dfhName(before).c_str(),
                           dfhName(killi->dfhOf(lineId)).c_str()));
        }
    }

    void
    doEvict(std::size_t lineId)
    {
        if (!resident[lineId]) {
            skip();
            return;
        }
        if (isKilli)
            evictKilli(lineId);
        else
            evictBaseline(lineId);
    }

    void
    evictKilli(std::size_t lineId)
    {
        const Dfh before = killi->dfhOf(lineId);
        const bool trains = before == Dfh::Initial &&
            scenario.params.evictionTraining;
        OracleDecision want{before, DfhAction::SendClean, false};
        if (trains) {
            std::vector<std::size_t> payloadErrs;
            const OracleProbe probe = killiProbe(
                lineId, Dfh::Initial, false, payloadErrs);
            want = oracleEvictTraining(scenario.params.dectedStable,
                                       probe);
        }

        const Cycle cost = scheme->onEvict(lineId, stored[lineId]);
        const Cycle wantCost =
            trains ? scenario.params.evictReadoutCost : 0;
        if (cost != wantCost)
            report(fmt("evict cost %llu, expected %llu",
                       (unsigned long long)cost,
                       (unsigned long long)wantCost));
        if (killi->dfhOf(lineId) != want.next)
            report(fmt("evict training %s -> %s, oracle says %s",
                       dfhName(before).c_str(),
                       dfhName(killi->dfhOf(lineId)).c_str(),
                       dfhName(want.next).c_str()));

        if (dirty[lineId]) {
            // §5.6.1: the write-back correctness check uses the
            // post-training state, as the host does.
            std::vector<std::size_t> payloadErrs;
            const OracleProbe probe = killiProbe(
                lineId, killi->dfhOf(lineId), true, payloadErrs);
            const WritebackOutcome wb =
                scheme->onWriteback(lineId, stored[lineId]);
            const bool wantClean = oracleWritebackClean(probe);
            if (wb.clean != wantClean)
                report(fmt("writeback clean=%d, oracle expects %d",
                           int(wb.clean), int(wantClean)));
            dirty[lineId] = false;
        }
        resident[lineId] = false;
        scheme->onInvalidate(lineId);
    }

    /** Host flush: write the dirty copy back, keep the line
     *  resident. The structural pass afterwards is the §5.6.1
     *  bookkeeping oracle — a flushed b'00 line must not strand its
     *  ECC-cache entry. */
    void
    doFlush(std::size_t lineId)
    {
        if (!resident[lineId] || !dirty[lineId]) {
            skip();
            return;
        }
        if (!isKilli) {
            scheme->onWriteback(lineId, stored[lineId]);
            dirty[lineId] = false;
            return;
        }

        const Dfh before = killi->dfhOf(lineId);
        std::vector<std::size_t> payloadErrs;
        const OracleProbe probe =
            killiProbe(lineId, before, true, payloadErrs);
        const WritebackOutcome wb =
            scheme->onWriteback(lineId, stored[lineId]);
        dirty[lineId] = false;

        if (wb.clean != oracleWritebackClean(probe))
            report(fmt("flush clean=%d, oracle expects %d",
                       int(wb.clean),
                       int(oracleWritebackClean(probe))));

        // Expected post-flush DFH mirrors decideDirty: the probe's
        // verdict over the dirty copy is the line's classification.
        // An already-disabled line stays disabled.
        Dfh want = before;
        if (before != Dfh::Disabled) {
            switch (probe.eccStatus) {
              case DecodeStatus::NoError:
                want = probe.sp == SParity::Ok ? before
                                               : Dfh::Disabled;
                break;
              case DecodeStatus::Corrected:
              case DecodeStatus::Miscorrected:
                want = Dfh::Stable1;
                break;
              case DecodeStatus::DetectedUncorrectable:
                want = Dfh::Disabled;
                break;
            }
        }
        if (killi->dfhOf(lineId) != want)
            report(fmt("flush transition %s -> %s, oracle says %s",
                       dfhName(before).c_str(),
                       dfhName(killi->dfhOf(lineId)).c_str(),
                       dfhName(want).c_str()));

        if (killi->dfhOf(lineId) == Dfh::Disabled) {
            // The host cannot keep data in a disabled frame.
            resident[lineId] = false;
            scheme->onInvalidate(lineId);
        }
    }

    void
    evictBaseline(std::size_t lineId)
    {
        scheme->onEvict(lineId, stored[lineId]);
        // The baseline runs write-through: never dirty.
        resident[lineId] = false;
        scheme->onInvalidate(lineId);
    }

    void
    doScrub()
    {
        scheme->onMaintenance();
        if (isKilli &&
            killi->dfhHistogram()[std::size_t(Dfh::Disabled)] != 0)
            report("scrub left disabled lines unreclaimed");
    }

    // ---- structural invariants ----------------------------------

    /**
     * After every op: each live ECC-cache entry must protect a
     * resident line that still needs it — training (b'01),
     * known-faulty (b'10), or dirty in write-back mode (§5.6.1).
     * The forward direction is spot-checked on the op's target line.
     */
    void
    checkStructure(std::size_t targetLine)
    {
        const EccCache &ecc = killi->eccCache();
        for (const EccEntry &e : ecc.entries()) {
            if (!e.valid)
                continue;
            const Dfh d = killi->dfhOf(e.l2Line);
            const bool needed = d == Dfh::Initial ||
                d == Dfh::Stable1 ||
                (scenario.params.writebackMode && dirty[e.l2Line]);
            if (!resident[e.l2Line])
                report(fmt("ECC entry for non-resident line %zu",
                           e.l2Line));
            else if (!needed)
                report(fmt("ECC entry for line %zu in %s",
                           e.l2Line, dfhName(d).c_str()));
        }
        if (resident[targetLine]) {
            const Dfh d = killi->dfhOf(targetLine);
            if ((d == Dfh::Initial || d == Dfh::Stable1) &&
                !ecc.find(targetLine))
                report(fmt("line %zu in %s has no ECC entry",
                           targetLine, dfhName(d).c_str()));
            if (d == Dfh::Disabled)
                report(fmt("line %zu resident while disabled",
                           targetLine));
        }
        if (killi->dfhOf(targetLine) == Dfh::Disabled &&
            scheme->canAllocate(targetLine))
            report("disabled (b'11) line passes canAllocate");
    }

    const Scenario &scenario;
    const bool isKilli;
    CheckResult &result;
    const std::size_t cap;
    std::size_t opIndex = 0;
    Tick tick = 0;
    TraceSink *trace = nullptr;

    // The reference keeps ~200 call sites below reading naturally.
    const std::unique_ptr<FaultMap> faultsOwned;
    FaultMap &faults;
    GoldenMemory golden;
    SegmentedParity fineLayout;
    SegmentedParity foldedLayout;
    std::unique_ptr<BlockCode> secded;
    std::unique_ptr<BlockCode> strong;

    std::unique_ptr<KilliProtection> killi;
    std::unique_ptr<PrecharacterizedScheme> secdedScheme;
    ProtectionScheme *scheme = nullptr;

    std::vector<bool> resident;
    std::vector<bool> dirty;
    std::vector<BitVec> stored;

    std::uint64_t expectedSdc = 0;
    std::uint64_t skippedOps = 0;
};

} // namespace

void
CheckCoverage::add(const CheckCoverage &other)
{
    reads += other.reads;
    corrections += other.corrections;
    errorMisses += other.errorMisses;
    evictTrainings += other.evictTrainings;
    eccDrops += other.eccDrops;
    invertedChecks += other.invertedChecks;
    expectedSdc += other.expectedSdc;
    skippedOps += other.skippedOps;
}

Json
CheckCoverage::toJson() const
{
    Json doc = Json::object();
    doc.set("reads", Json::number(reads));
    doc.set("corrections", Json::number(corrections));
    doc.set("error_misses", Json::number(errorMisses));
    doc.set("evict_trainings", Json::number(evictTrainings));
    doc.set("ecc_drops", Json::number(eccDrops));
    doc.set("inverted_checks", Json::number(invertedChecks));
    doc.set("expected_sdc", Json::number(expectedSdc));
    doc.set("skipped_ops", Json::number(skippedOps));
    return doc;
}

std::size_t
CheckResult::firstViolationOp() const
{
    std::size_t first = ~std::size_t{0};
    for (const CheckViolation &v : violations)
        first = std::min(first, v.opIndex);
    return first;
}

Json
CheckResult::toJson() const
{
    Json doc = Json::object();
    Json arr = Json::array();
    for (const CheckViolation &v : violations) {
        Json entry = Json::object();
        entry.set("op", Json::number(std::uint64_t(v.opIndex)));
        entry.set("scheme", Json::string(v.scheme));
        entry.set("message", Json::string(v.message));
        arr.push(std::move(entry));
    }
    doc.set("violations", std::move(arr));
    doc.set("coverage", coverage.toJson());
    return doc;
}

CheckResult
runScenario(const Scenario &scenario, std::size_t maxViolations,
            TraceSink *trace)
{
    CheckResult out;
    SchemeHarness killiH(scenario, true, out, maxViolations);
    SchemeHarness baseH(scenario, false, out, maxViolations);
    if (trace) {
        killiH.setTrace(trace);
        baseH.setTrace(trace);
    }
    for (std::size_t i = 0; i < scenario.trace.size(); ++i) {
        killiH.apply(scenario.trace[i], i);
        baseH.apply(scenario.trace[i], i);
        if (out.violations.size() >= maxViolations)
            break;
    }
    killiH.finishCoverage(out.coverage);
    baseH.finishCoverage(out.coverage);
    return out;
}

} // namespace killi::check
