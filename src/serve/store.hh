/**
 * @file
 * The content-addressed store of the serving daemon. kserved keeps
 * two instances of it:
 *
 *  - the result cache (ResultStore): the serialized result document
 *    of a sweep, keyed by its *canonical request key* — the compact
 *    JSON of the fully resolved, result-affecting options plus seed
 *    and build id (SERVING.md, "Cache key"). Storing the text, not a
 *    parsed tree, makes a hit byte-identical to the original reply.
 *    Bounded by entries (cache-entries=).
 *  - the warm store (DieStore): the sampled fault population of a
 *    die, keyed by just the inputs that determine it (faultMapKey()
 *    in server.hh). Jobs that differ only in workload/scheme subsets
 *    miss the result cache but share a die, which every sweep point
 *    adopts uncopied through FaultModel::buildMapFrom(). Bounded by
 *    bytes (warm-store-mb=).
 *
 * An entry is addressed by the SHA-256 of its canonical key and
 * holds an immutable, shared value plus its accounted byte size, so
 * a hit hands out a refcounted handle and copies nothing.
 * getOrSynthesize() is single-flight: while one caller synthesizes a
 * key, later callers wait for it and count hits, so the miss counter
 * equals the synthesis count exactly (the serve-smoke CI leg asserts
 * this for the warm store). Least-recently-used entries are evicted
 * while either bound is exceeded, always keeping the newest. All
 * methods are thread-safe: every list, index and tally change goes
 * under the one store mutex, so a drain-time clear() racing an
 * insert's eviction accounts each entry exactly once.
 */

#ifndef KILLI_SERVE_STORE_HH
#define KILLI_SERVE_STORE_HH

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <limits>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "common/json.hh"
#include "fault/fault_map.hh"
#include "metrics/metrics.hh"

namespace killi::serve
{

/** Counters and bounds of one ContentStore (the stats-reply
 *  "cache"/"warm_store" objects). */
struct StoreStats
{
    std::uint64_t hits = 0;
    /** lookup() misses plus syntheses; lookupByHash() misses are not
     *  counted (a fetch probe is not a failed submit lookup). */
    std::uint64_t misses = 0;
    std::uint64_t insertions = 0;
    /** Evicted by a bound or dropped by clear(). */
    std::uint64_t evictions = 0;
    std::size_t entries = 0;
    /** Accounted value bytes currently resident. */
    std::uint64_t bytes = 0;
    std::size_t maxEntries = 0;
    std::uint64_t maxBytes = 0;

    double
    hitRate() const
    {
        const double total = double(hits) + double(misses);
        return total > 0 ? double(hits) / total : 0.0;
    }

    /** max_entries/max_bytes appear only for a bound that is set. */
    Json toJson() const;
};

template <class T>
class ContentStore
{
  public:
    using Value = std::shared_ptr<const T>;
    /** A synthesized value and its accounted byte size. */
    using Synthesizer = std::function<std::pair<Value, std::size_t>()>;

    /** Eviction bounds; a member left at its default is unbounded. */
    struct Bounds
    {
        std::size_t maxEntries = std::numeric_limits<std::size_t>::max();
        std::uint64_t maxBytes = std::numeric_limits<std::uint64_t>::max();
    };

    /**
     * @param reg optional metrics registry; when set, the store
     *        registers <prefix>_{hits,misses,insertions,evictions}_total
     *        counters, <prefix>_{entries,bytes} gauges and a
     *        <prefix>_hit_seconds histogram. Must outlive the store.
     */
    explicit ContentStore(Bounds bounds,
                          metrics::MetricsRegistry *reg = nullptr,
                          const std::string &prefix = {});

    /** SHA-256 hex of @p canonicalKey — the content address carried
     *  in submitted/result frames as "key". */
    static std::string hashKey(const std::string &canonicalKey);

    /** Look up @p canonicalKey (counting a hit or a miss) and refresh
     *  its recency; null on a miss. @p hashOut (optional) receives
     *  the content hash either way. */
    Value lookup(const std::string &canonicalKey,
                 std::string *hashOut = nullptr);

    /** Look up by content hash — the address a fleet peer holds from
     *  a "submitted"/"result" frame. Counts a hit; a miss counts
     *  nothing. */
    Value lookupByHash(const std::string &hash);

    /** Insert @p value (or overwrite: values are deterministic in
     *  the key, the newest is kept and is not a new insertion) and
     *  return its content hash. */
    std::string insert(const std::string &canonicalKey, Value value,
                       std::size_t bytes);

    /**
     * Look up @p canonicalKey; on a miss run @p synthesize without
     * the store lock and insert its value. Concurrent callers of the
     * same key wait for that one synthesis and count hits; only the
     * synthesizing caller counts a miss. A synthesize that throws
     * releases the key's claim (the next caller synthesizes) and
     * rethrows.
     */
    Value getOrSynthesize(const std::string &canonicalKey,
                          const Synthesizer &synthesize);

    /** Drop every entry, counting each as an eviction (the daemon
     *  clears at drain time so the gauges read 0 afterwards). */
    void clear();

    StoreStats stats() const;

  private:
    struct Entry
    {
        std::string hash;
        std::string canonicalKey;
        Value value;
        std::size_t bytes = 0;
    };
    using Iter = typename std::list<Entry>::iterator;

    /** Caller holds mtx. The entry for @p hash, or lru.end(); panics
     *  if it was stored under a different canonical key. */
    Iter findLocked(const std::string &hash,
                    const std::string &canonicalKey);
    /** Caller holds mtx. Count a hit and refresh recency. */
    Value hitLocked(Iter it);
    /** Caller holds mtx. Insert or overwrite at the LRU front, then
     *  evict from the back while a bound is exceeded. */
    void insertLocked(const std::string &hash,
                      const std::string &canonicalKey, Value value,
                      std::size_t bytes);
    void observeHit(std::chrono::steady_clock::time_point t0);

    const Bounds bounds;
    mutable std::mutex mtx;
    std::condition_variable cv;
    /** Front = most recently used. */
    std::list<Entry> lru;
    std::unordered_map<std::string, Iter> index;
    /** Hashes being synthesized right now (single-flight). */
    std::unordered_set<std::string> inFlight;
    StoreStats tally;
    /** <prefix>_hit_seconds; null without a registry. */
    metrics::Histogram *hitLatency = nullptr;
};

/** The result cache: serialized result documents. */
using ResultStore = ContentStore<std::string>;
/** The warm store: sampled die populations. */
using DieStore = ContentStore<FaultPopulation>;

extern template class ContentStore<std::string>;
extern template class ContentStore<FaultPopulation>;

} // namespace killi::serve

#endif // KILLI_SERVE_STORE_HH
