#include "cache/l2cache.hh"

#include <bit>

#include "common/log.hh"

namespace killi
{

L2Cache::L2Cache(EventQueue &eq_, DramModel &dram_,
                 GoldenMemory &golden_, ProtectionScheme &protection_,
                 const CacheGeometry &geom_, const L2Params &params,
                 FaultMap *fault_map)
    : eq(eq_), dram(dram_), golden(golden_), protection(protection_),
      geometry(geom_), p(params), trace(params.trace),
      faultMap(fault_map), upsetRng(params.softErrorSeed),
      lines(geom_.numLines()), tagWords(geom_.numLines(), 0),
      bankFree(geom_.banks, 0),
      mshrs(std::size_t(geom_.banks) * params.mshrsPerBank),
      mshrUsed(geom_.banks, 0)
{
    if (p.softErrorRatePerBitCycle > 0.0 && !faultMap)
        fatal("L2Cache: soft-error injection needs a FaultMap");
    if (geometry.assoc > 64)
        fatal("L2Cache: %u ways exceed allocate()'s 64-way mask",
              geometry.assoc);
    protection.attach(*this, geometry);
    protection.setTrace(trace);
}

const BitVec &
L2Cache::payloadInto(BitVec &buffer, Addr lineAddr, std::uint32_t version)
{
    golden.dataInto(lineAddr, version, buffer);
    return buffer;
}

void
L2Cache::writebackIfDirty(std::size_t lineId, Line &line,
                          const BitVec &data)
{
    if (!line.dirty)
        return;
    line.dirty = false;
    const Addr lineAddr = residentAddr(lineId);
    const WritebackOutcome wb = protection.onWriteback(lineId, data);
    KTRACE(trace, eq.curTick(), TraceCat::L2, "l2.writeback",
           {"line", lineId}, {"clean", wb.clean});
    if (!wb.clean)
        ++counts.wbDataLoss;
    if (wb.extraCost)
        chargeBank(lineAddr, wb.extraCost);
    ++counts.writebacks;
    dram.access(lineAddr, true, eq.curTick());
}

void
L2Cache::sampleUpsets(std::size_t lineId, Line &line)
{
    if (p.softErrorRatePerBitCycle <= 0.0)
        return;
    const Tick now = eq.curTick();
    if (now <= line.upsetCheckedAt)
        return;
    const unsigned bits = golden.lineBits();
    const double window = double(now - line.upsetCheckedAt) * bits;
    line.upsetCheckedAt = now;
    const RngStreamScope stream("transient");
    const unsigned events =
        upsetRng.poisson(window * p.softErrorRatePerBitCycle);
    for (unsigned e = 0; e < events; ++e) {
        const std::uint16_t bit = static_cast<std::uint16_t>(
            upsetRng.below(bits));
        faultMap->injectTransient(lineId, bit);
        KTRACE(trace, now, TraceCat::Error, "error.soft_error",
               {"line", lineId}, {"bit", std::uint64_t(bit)});
        ++counts.softErrors;
        if (upsetRng.uniform() < p.softErrorBurstFraction) {
            // Multi-bit event in adjacent cells (Maiz et al.): the
            // case interleaved parity is built for.
            const std::uint16_t neighbour = static_cast<std::uint16_t>(
                bit + 1u < bits ? bit + 1 : bit - 1);
            faultMap->injectTransient(lineId, neighbour);
            ++counts.softErrors;
        }
    }
}

void
L2Cache::maybeMaintain()
{
    if (p.maintenanceInterval == 0)
        return;
    const Tick now = eq.curTick();
    if (now - lastMaintenance < p.maintenanceInterval)
        return;
    lastMaintenance = now;
    protection.onMaintenance();
}

Tick
L2Cache::reserveBank(Addr lineAddr, Tick earliest)
{
    Tick &free = bankFree[geometry.bankOf(lineAddr)];
    const Tick start = std::max(earliest, free);
    free = start + p.bankOccupancy;
    return start;
}

void
L2Cache::chargeBank(Addr lineAddr, Cycle cost)
{
    Tick &free = bankFree[geometry.bankOf(lineAddr)];
    free = std::max(free, eq.curTick()) + cost;
}

Addr
L2Cache::residentAddr(std::size_t lineId) const
{
    return geometry.addrOf(tagWords[lineId] >> 1, lineId / geometry.assoc);
}

std::size_t
L2Cache::findLine(Addr lineAddr) const
{
    const std::size_t base = geometry.lineId(geometry.setOf(lineAddr), 0);
    const std::uint64_t want = validTag(geometry.tagOf(lineAddr));
    const std::uint64_t *words = tagWords.data() + base;
    for (unsigned way = 0; way < geometry.assoc; ++way) {
        if (words[way] == want)
            return base + way;
    }
    return npos;
}

std::uint32_t
L2Cache::newRequest(Addr lineAddr, L2Client &client, std::uint64_t token)
{
    std::uint32_t id = freeRequests;
    if (id == kNoRequest) {
        id = std::uint32_t(requests.size());
        requests.emplace_back();
    } else {
        freeRequests = requests[id].next;
    }
    requests[id] = Request{lineAddr, &client, token, 0, kNoRequest};
    return id;
}

L2Cache::Mshr *
L2Cache::findMshr(unsigned bank, Addr lineAddr)
{
    Mshr *table = &mshrs[std::size_t(bank) * p.mshrsPerBank];
    for (unsigned i = 0; i < mshrUsed[bank]; ++i) {
        if (table[i].lineAddr == lineAddr)
            return &table[i];
    }
    return nullptr;
}

std::size_t
L2Cache::mshrsInUse() const
{
    std::size_t used = 0;
    for (const unsigned n : mshrUsed)
        used += n;
    return used;
}

void
L2Cache::read(Addr addr, L2Client &client, std::uint64_t token)
{
    const Addr lineAddr = geometry.lineAddr(addr);
    const Tick start = reserveBank(lineAddr, eq.curTick() + p.xbarLatency);
    eq.schedule<&L2Cache::readTag>(start + p.tagLatency, this,
                                   newRequest(lineAddr, client, token));
}

void
L2Cache::readTag(std::uint64_t req)
{
    const Addr lineAddr = requests[req].lineAddr;
    maybeMaintain();
    const std::size_t lineId = findLine(lineAddr);
    if (lineId == npos) {
        ++counts.readMisses;
        KTRACE(trace, eq.curTick(), TraceCat::L2, "l2.read_miss",
               {"addr", lineAddr});
        startMiss(req);
        return;
    }
    Line *line = &lines[lineId];
    sampleUpsets(lineId, *line);

    const AccessResult res =
        protection.onReadHit(lineId,
                             payloadInto(hookData, lineAddr, line->version));
    if (res.errorInducedMiss) {
        ++counts.errorMisses;
        KTRACE(trace, eq.curTick(), TraceCat::L2, "l2.error_miss",
               {"line", lineId}, {"addr", lineAddr},
               {"dirty", line->dirty});
        if (line->dirty) {
            // Write-back mode: the only copy was uncorrectable. The
            // loss is recorded by the oracle; the refetch proceeds
            // so the simulation remains deterministic.
            ++counts.dirtyErrorLoss;
            line->dirty = false;
        }
        tagWords[lineId] = 0;
        protection.onInvalidate(lineId);
        requests[req].extraDelay = res.extraLatency;
        startMiss(req);
        return;
    }

    ++counts.readHits;
    KTRACE(trace, eq.curTick(), TraceCat::L2, "l2.read_hit",
           {"line", lineId});
    if (res.sdc) {
        ++counts.sdc;
        KTRACE(trace, eq.curTick(), TraceCat::Error, "error.sdc",
               {"line", lineId}, {"addr", lineAddr});
    }
    line->lastUse = ++useCounter;
    protection.onTouch(lineId);
    eq.schedule<&L2Cache::respond>(
        eq.curTick() + p.dataLatency + res.extraLatency, this, req);
}

void
L2Cache::startMiss(std::uint64_t req)
{
    Request &r = requests[req];
    const unsigned bank = geometry.bankOf(r.lineAddr);
    if (Mshr *entry = findMshr(bank, r.lineAddr)) {
        requests[entry->tail].next = std::uint32_t(req);
        entry->tail = std::uint32_t(req);
        return;
    }
    if (mshrUsed[bank] >= p.mshrsPerBank) {
        ++counts.mshrRetries;
        eq.scheduleIn<&L2Cache::startMiss>(p.mshrRetryDelay, this, req);
        return;
    }
    mshrs[std::size_t(bank) * p.mshrsPerBank + mshrUsed[bank]++] =
        Mshr{r.lineAddr, std::uint32_t(req), std::uint32_t(req)};
    const Tick done =
        dram.access(r.lineAddr, false, eq.curTick() + r.extraDelay);
    eq.schedule<&L2Cache::fill>(done, this, r.lineAddr);
}

void
L2Cache::fill(Addr lineAddr)
{
    const unsigned bank = geometry.bankOf(lineAddr);
    Mshr *entry = findMshr(bank, lineAddr);
    if (!entry)
        panic("L2Cache: fill without MSHR entry");
    std::uint32_t waiter = entry->head;
    // Free the entry: the bank's last live entry takes its place.
    *entry = mshrs[std::size_t(bank) * p.mshrsPerBank + --mshrUsed[bank]];

    allocate(lineAddr);

    const Tick respTime = eq.curTick() + p.dataLatency;
    for (; waiter != kNoRequest; waiter = requests[waiter].next)
        eq.schedule<&L2Cache::respond>(respTime, this, waiter);
}

void
L2Cache::respond(std::uint64_t req)
{
    Request &r = requests[req];
    L2Client &client = *r.client;
    const std::uint64_t token = r.token;
    r.next = freeRequests;
    freeRequests = std::uint32_t(req);
    client.l2Response(token, eq.curTick());
}

std::size_t
L2Cache::allocate(Addr lineAddr)
{
    const std::size_t set = geometry.setOf(lineAddr);

    // Evicting a victim can change its allocatability: training a
    // dying b'01 line may disable it (Killi Table 2). Retry victim
    // selection until a cleared way accepts the fill; each round
    // invalidates at most one line, so assoc+1 rounds bound the loop.
    for (unsigned attempt = 0; attempt <= geometry.assoc; ++attempt) {
        // One walk over the allocatable ways. Preferred victim: an
        // invalid way with the highest scheme priority (Killi's
        // b'01 > b'00 > b'10); failing that, the first LRU way. The
        // walk only notes the allocatable ways, so the LRU stamps
        // are read only when no invalid way qualified.
        const std::size_t base = geometry.lineId(set, 0);
        std::size_t victimId = npos;
        int bestPriority = -1;
        std::uint64_t allocatable = 0; // bit w: way w may take the fill
        for (unsigned way = 0; way < geometry.assoc; ++way) {
            const std::size_t id = base + way;
            if (!protection.canAllocate(id))
                continue;
            allocatable |= std::uint64_t{1} << way;
            if (tagWords[id])
                continue;
            const int prio = protection.allocPriority(id);
            if (prio > bestPriority) {
                victimId = id;
                bestPriority = prio;
            }
        }
        if (victimId == npos) {
            for (; allocatable; allocatable &= allocatable - 1) {
                const std::size_t id =
                    base + std::size_t(std::countr_zero(allocatable));
                if (victimId == npos ||
                    lines[id].lastUse < lines[victimId].lastUse)
                    victimId = id;
            }
        }
        if (victimId == npos)
            break; // whole set disabled/unprotectable

        Line &victim = lines[victimId];
        if (tagWords[victimId]) {
            ++counts.evictions;
            KTRACE(trace, eq.curTick(), TraceCat::L2, "l2.evict",
                   {"line", victimId});
            const BitVec &dying = payloadInto(
                hookData, residentAddr(victimId), victim.version);
            const Cycle cost = protection.onEvict(victimId, dying);
            if (cost)
                chargeBank(lineAddr, cost);
            writebackIfDirty(victimId, victim, dying);
            protection.onInvalidate(victimId);
            tagWords[victimId] = 0;
            if (!protection.canAllocate(victimId))
                continue; // training disabled this way; pick anew
        }

        tagWords[victimId] = validTag(geometry.tagOf(lineAddr));
        victim.dirty = false;
        victim.version = golden.version(lineAddr);
        victim.lastUse = ++useCounter;
        victim.upsetCheckedAt = eq.curTick();
        if (faultMap)
            faultMap->clearTransients(victimId); // cells rewritten
        const Cycle fillCost = protection.onFill(
            victimId, payloadInto(hookData, lineAddr, victim.version));
        if (fillCost)
            chargeBank(lineAddr, fillCost);
        KTRACE(trace, eq.curTick(), TraceCat::L2, "l2.fill",
               {"line", victimId}, {"addr", lineAddr});
        return victimId;
    }

    // Serve without caching.
    ++counts.bypassFills;
    KTRACE(trace, eq.curTick(), TraceCat::L2, "l2.bypass_fill",
           {"addr", lineAddr});
    return npos;
}

void
L2Cache::write(Addr addr)
{
    const Addr lineAddr = geometry.lineAddr(addr);
    golden.write(lineAddr); // program-order memory update
    const Tick start = reserveBank(lineAddr, eq.curTick() + p.xbarLatency);
    eq.schedule<&L2Cache::writeTag>(start + p.tagLatency, this, lineAddr);
}

void
L2Cache::writeTag(Addr lineAddr)
{
    maybeMaintain();
    const std::size_t lineId = findLine(lineAddr);
    Line *line = lineId == npos ? nullptr : &lines[lineId];
    if (!line && p.writePolicy == WritePolicy::WriteBack) {
        // Write-allocate: a full-line store installs directly.
        ++counts.writeMisses;
        const std::size_t allocated = allocate(lineAddr);
        if (allocated == npos) {
            dram.access(lineAddr, true, eq.curTick());
            return;
        }
        Line &fresh = lines[allocated];
        fresh.dirty = true;
        protection.onWriteHit(
            allocated, payloadInto(hookData, lineAddr, fresh.version));
        return;
    }
    if (line) {
        ++counts.writeHits;
        KTRACE(trace, eq.curTick(), TraceCat::L2, "l2.write_hit",
               {"line", lineId});
        line->version = golden.version(lineAddr);
        line->lastUse = ++useCounter;
        line->upsetCheckedAt = eq.curTick();
        if (faultMap)
            faultMap->clearTransients(lineId); // cells rewritten
        if (p.writePolicy == WritePolicy::WriteBack)
            line->dirty = true;
        protection.onWriteHit(
            lineId, payloadInto(hookData, lineAddr, line->version));
    } else {
        ++counts.writeMisses;
        KTRACE(trace, eq.curTick(), TraceCat::L2, "l2.write_miss",
               {"addr", lineAddr});
    }
    if (p.writePolicy == WritePolicy::WriteThrough)
        dram.access(lineAddr, true, eq.curTick());
}

void
L2Cache::invalidateLine(std::size_t lineId)
{
    if (!tagWords[lineId])
        return;
    Line &line = lines[lineId];
    // Losing the line is an eviction from the scheme's perspective:
    // give it the chance to classify the dying data (Killi trains
    // its DFH bits on the read-out, §4.4).
    const Addr lineAddr = residentAddr(lineId);
    const BitVec &dying = payloadInto(backdoorData, lineAddr, line.version);
    const Cycle cost = protection.onEvict(lineId, dying);
    if (cost)
        chargeBank(lineAddr, cost);
    writebackIfDirty(lineId, line, dying);
    tagWords[lineId] = 0;
    ++counts.protInvalidations;
    KTRACE(trace, eq.curTick(), TraceCat::L2, "l2.prot_invalidate",
           {"line", lineId});
    protection.onInvalidate(lineId);
}

bool
L2Cache::isCached(Addr addr) const
{
    return findLine(geometry.lineAddr(addr)) != npos;
}

std::size_t
L2Cache::validLines() const
{
    std::size_t count = 0;
    for (const std::uint64_t word : tagWords)
        count += word & 1;
    return count;
}

} // namespace killi
