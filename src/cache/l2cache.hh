/**
 * @file
 * The banked, write-through GPU L2 cache model (paper Table 3): 2MB,
 * 16-way, 16 banks, 64B lines, 2-cycle tag + 2-cycle data latency,
 * with a pluggable ProtectionScheme consulted on every fill, hit,
 * eviction, and invalidation.
 *
 * Write-through semantics: stores update a present line in place and
 * always propagate to memory; loads allocate, stores never do. Any
 * detected-but-uncorrectable error therefore becomes an
 * *error-induced miss* — the line is dropped and refetched — never a
 * data loss, which is the property that lets Killi use cheap parity
 * for fault-free lines.
 */

#ifndef KILLI_CACHE_L2CACHE_HH
#define KILLI_CACHE_L2CACHE_HH

#include <cstdint>
#include <vector>

#include "cache/geometry.hh"
#include "cache/protection.hh"
#include "common/bitvec.hh"
#include "common/rng.hh"
#include "fault/fault_map.hh"
#include "sim/dram.hh"
#include "sim/event_queue.hh"
#include "sim/golden.hh"
#include "trace/trace.hh"

namespace killi
{

/** Store handling policy (paper §2.4 vs §5.6.1). */
enum class WritePolicy
{
    WriteThrough, //!< stores propagate to memory; lines stay clean
    WriteBack     //!< stores dirty the line; memory updated at evict
};

struct L2Params
{
    Cycle tagLatency = 2;
    Cycle dataLatency = 2;
    Cycle xbarLatency = 8;    //!< CU/L1 to L2 bank interconnect
    Cycle bankOccupancy = 1;  //!< pipelined issue rate per bank
    unsigned mshrsPerBank = 32;
    Cycle mshrRetryDelay = 4;

    /**
     * Soft-error (transient upset) rate per bit per cycle. When
     * non-zero (and a FaultMap is attached), resident lines
     * accumulate Poisson-distributed flips over their residency
     * time, materialized at the next read.
     */
    double softErrorRatePerBitCycle = 0.0;
    /** Fraction of upsets that strike two adjacent cells (the
     *  multi-bit events interleaved parity is designed for). */
    double softErrorBurstFraction = 0.0;
    std::uint64_t softErrorSeed = 1234;

    /** Cycles between protection-scheme maintenance (scrubber)
     *  passes; 0 disables. Driven lazily on accesses. */
    Cycle maintenanceInterval = 0;

    WritePolicy writePolicy = WritePolicy::WriteThrough;

    /** Optional event-trace sink (l2.* / error.* categories); also
     *  handed to the attached ProtectionScheme. Not owned. */
    TraceSink *trace = nullptr;
};

/** The L2's event counts (the RunResult fields and the experiment
 *  tables read them). */
struct L2Stats
{
    std::uint64_t readHits = 0;          //!< load hits
    std::uint64_t readMisses = 0;        //!< demand load misses
    std::uint64_t errorMisses = 0;       //!< error-induced misses
    std::uint64_t writeHits = 0;         //!< store hits (updated in place)
    std::uint64_t writeMisses = 0;       //!< store misses (no allocate)
    std::uint64_t evictions = 0;         //!< capacity/conflict evictions
    std::uint64_t bypassFills = 0;       //!< fills with no allocatable way
    std::uint64_t mshrRetries = 0;       //!< accesses replayed on full MSHR
    std::uint64_t protInvalidations = 0; //!< lines dropped by the scheme
    std::uint64_t sdc = 0;               //!< silent data corruptions (oracle)
    std::uint64_t softErrors = 0;        //!< transient upsets injected
    std::uint64_t writebacks = 0;        //!< dirty lines flushed to memory
    std::uint64_t wbDataLoss = 0;        //!< dirty write-backs, uncorrectable
    std::uint64_t dirtyErrorLoss = 0;    //!< dirty lines lost to read errors
};

/** A requester of L2 loads (a compute unit, a test double). */
class L2Client
{
  public:
    /** The load issued with @p token is answered at tick @p when. */
    virtual void l2Response(std::uint64_t token, Tick when) = 0;

  protected:
    ~L2Client() = default;
};

class L2Cache : public L2Backdoor
{
  public:
    /**
     * @param fault_map optional: required only for soft-error
     *        injection (transient upsets are recorded there so the
     *        protection scheme's probes see them).
     */
    L2Cache(EventQueue &eq, DramModel &dram, GoldenMemory &golden,
            ProtectionScheme &protection, const CacheGeometry &geom,
            const L2Params &params, FaultMap *fault_map = nullptr);

    /** Issue a load for @p addr at the current tick; @p client is
     *  answered with @p token at the response tick. */
    void read(Addr addr, L2Client &client, std::uint64_t token);

    /** Issue a write-through store for @p addr (fire-and-forget). */
    void write(Addr addr);

    /**
     * Memory response for the outstanding miss on @p lineAddr:
     * free its MSHR, allocate the line and answer every waiter in
     * arrival order. The miss path schedules it; a fill with no
     * MSHR holding the line panics.
     */
    void fill(Addr lineAddr);

    /** MSHR entries currently holding a miss, over all banks. */
    std::size_t mshrsInUse() const;

    // L2Backdoor
    void invalidateLine(std::size_t lineId) override;
    Tick now() const override { return eq.curTick(); }

    /** True iff @p addr currently resides in the cache (tests). */
    bool isCached(Addr addr) const;

    /** Number of valid lines (tests / reporting). */
    std::size_t validLines() const;

    const CacheGeometry &geom() const { return geometry; }
    const L2Stats &stats() const { return counts; }

    /** Zero the counts (the warm-up boundary). */
    void resetStats() { counts = {}; }

  private:
    /** A line's state apart from its tag: the valid bit and the tag
     *  live in tagWords. The payload is not stored: it is always
     *  GoldenMemory::data(address, version), generated into a
     *  scratch buffer when a hook needs it. */
    struct Line
    {
        bool dirty = false;
        std::uint32_t version = 0;
        std::uint64_t lastUse = 0;
        /** Residency time already covered by upset sampling. */
        Tick upsetCheckedAt = 0;
    };

    /** Generate GoldenMemory::data(@p lineAddr, @p version) into
     *  @p buffer and return it. */
    const BitVec &payloadInto(BitVec &buffer, Addr lineAddr,
                              std::uint32_t version);

    /** Flush a dirty line, whose payload is @p data, to memory
     *  before it is dropped. */
    void writebackIfDirty(std::size_t lineId, Line &line,
                          const BitVec &data);

    /** Accumulate soft-error upsets over the line's residency. */
    void sampleUpsets(std::size_t lineId, Line &line);

    /** Lazily run the protection scheme's scrubber pass. */
    void maybeMaintain();

    /** Reserve a bank slot: earliest issue time from @p earliest. */
    Tick reserveBank(Addr lineAddr, Tick earliest);

    /** Hold the bank busy for @p cost extra cycles (metadata
     *  read-outs, inverted-write checks). */
    void chargeBank(Addr lineAddr, Cycle cost);

    /** One in-flight load, from read() until its response. Slots
     *  are pooled and reused through a free list. */
    struct Request
    {
        Addr lineAddr;
        L2Client *client;
        std::uint64_t token;
        /** Delay before the miss reaches memory (error-induced
         *  misses pay the scheme's detection latency). */
        Cycle extraDelay;
        /** Next request on the same MSHR or on the free list. */
        std::uint32_t next;
    };

    /** A miss status holding register: one outstanding line fill
     *  and its waiting requests, oldest first, linked through
     *  Request::next. */
    struct Mshr
    {
        Addr lineAddr;
        std::uint32_t head;
        std::uint32_t tail;
    };

    static constexpr std::uint32_t kNoRequest = ~std::uint32_t{0};

    std::uint32_t newRequest(Addr lineAddr, L2Client &client,
                             std::uint64_t token);

    /** The live MSHR of @p bank holding @p lineAddr, or nullptr. */
    Mshr *findMshr(unsigned bank, Addr lineAddr);

    /** Tag-array outcome for a load (event handler). */
    void readTag(std::uint64_t req);

    /** Tag-array outcome for a store (event handler). */
    void writeTag(Addr lineAddr);

    /** Begin, join or retry the miss path of a load (demand or
     *  error-induced; also the MSHR-retry event handler). */
    void startMiss(std::uint64_t req);

    /** Deliver a load's response and free its slot (event
     *  handler). */
    void respond(std::uint64_t req);

    /** Pick and prepare a victim way; returns line id or npos. */
    std::size_t allocate(Addr lineAddr);

    /** The line id holding @p lineAddr, or npos on a miss. */
    std::size_t findLine(Addr lineAddr) const;

    /** Line address of the valid line @p lineId. */
    Addr residentAddr(std::size_t lineId) const;

    /** The tagWords entry of a valid line holding @p tag. */
    static std::uint64_t validTag(Addr tag) { return tag << 1 | 1; }

    static constexpr std::size_t npos = ~std::size_t{0};

    EventQueue &eq;
    DramModel &dram;
    GoldenMemory &golden;
    ProtectionScheme &protection;
    CacheGeometry geometry;
    L2Params p;
    TraceSink *trace;
    FaultMap *faultMap;
    Rng upsetRng;
    Tick lastMaintenance = 0;

    std::vector<Line> lines;
    /** Per line, `tag << 1 | 1` when valid and 0 when not, contiguous
     *  per set: a lookup compares assoc words (two host cache lines
     *  for 16 ways) instead of walking the Line records. */
    std::vector<std::uint64_t> tagWords;
    std::vector<Tick> bankFree;
    /** Request slots; grows to the peak number of loads in flight
     *  and is then reused, so the steady state allocates nothing. */
    std::vector<Request> requests;
    std::uint32_t freeRequests = kNoRequest;
    /** Fixed per-bank MSHR tables: bank b owns entries
     *  [b * mshrsPerBank, (b + 1) * mshrsPerBank), of which the first
     *  mshrUsed[b] are live. */
    std::vector<Mshr> mshrs;
    std::vector<unsigned> mshrUsed;
    std::uint64_t useCounter = 0;
    L2Stats counts;

    /** Payload scratch, sized on first use and refilled in place.
     *  Every hook call site fills hookData. invalidateLine fills
     *  backdoorData instead: a scheme's onFill can call it, and the
     *  fill's own argument must survive the nested onEvict and
     *  write-back of the dropped line. */
    BitVec hookData{0};
    BitVec backdoorData{0};
};

} // namespace killi

#endif // KILLI_CACHE_L2CACHE_HH
