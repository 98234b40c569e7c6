#include "serve/warm_store.hh"

#include "common/build_info.hh"
#include "common/hash.hh"
#include "common/log.hh"

namespace killi::serve
{

WarmStore::WarmStore(std::size_t maxBytes,
                     metrics::MetricsRegistry *reg)
    : maxBytes(maxBytes)
{
    if (!reg)
        return;
    // Same idiom as the ResultCache: scrape-time callbacks pull from
    // the store's own accounting under its mutex, which is safe
    // because the store never touches the registry after
    // construction.
    reg->counterFn("kserved_warm_store_hits_total",
                   "Warm-state lookups served from memory (waiters "
                   "on an in-flight synthesis count here)",
                   {}, [this] {
                       std::lock_guard<std::mutex> lock(mtx);
                       return hitCount;
                   });
    reg->counterFn("kserved_warm_store_misses_total",
                   "Warm-state lookups that ran a synthesis (equals "
                   "the synthesis count exactly)",
                   {}, [this] {
                       std::lock_guard<std::mutex> lock(mtx);
                       return missCount;
                   });
    reg->counterFn("kserved_warm_store_insertions_total",
                   "Payloads inserted into the warm store", {},
                   [this] {
                       std::lock_guard<std::mutex> lock(mtx);
                       return insertCount;
                   });
    reg->counterFn("kserved_warm_store_evictions_total",
                   "Payloads evicted by the byte bound (and dropped "
                   "by drain-time clear)",
                   {}, [this] {
                       std::lock_guard<std::mutex> lock(mtx);
                       return evictCount;
                   });
    reg->gaugeFn("kserved_warm_store_entries",
                 "Payloads resident in the warm store", {}, [this] {
                     std::lock_guard<std::mutex> lock(mtx);
                     return double(lru.size());
                 });
    reg->gaugeFn("kserved_warm_store_bytes",
                 "Payload bytes resident in the warm store", {},
                 [this] {
                     std::lock_guard<std::mutex> lock(mtx);
                     return double(bytesStored);
                 });
}

std::string
WarmStore::faultMapKey(const ScenarioSpec &scenario,
                       std::size_t numLines, std::size_t lineBits)
{
    Json key = Json::object();
    key.set("kind", Json::string("faultmap"));
    key.set("scenario", scenario.toJson());
    key.set("lines", Json::number(std::uint64_t(numLines)));
    key.set("line_bits", Json::number(std::uint64_t(lineBits)));
    key.set("build", Json::string(buildId()));
    return key.toString(0);
}

WarmStore::Payload
WarmStore::getOrSynthesize(const std::string &canonicalKey,
                           const std::function<Payload()> &synthesize)
{
    const std::string hash = sha256Hex(canonicalKey);
    std::unique_lock<std::mutex> lock(mtx);
    for (;;) {
        const auto it = index.find(hash);
        if (it != index.end()) {
            if (it->second->canonicalKey != canonicalKey) {
                panic("WarmStore: content-hash collision for key "
                      "'%s'",
                      canonicalKey.c_str());
            }
            lru.splice(lru.begin(), lru, it->second);
            ++hitCount;
            return it->second->payload;
        }
        if (!inFlight.count(hash))
            break;
        // Another caller is synthesizing this key right now; wait
        // for its insert instead of duplicating the work.
        cv.wait(lock);
    }
    inFlight.insert(hash);
    ++missCount;
    lock.unlock();

    Payload payload;
    try {
        payload = synthesize();
    } catch (...) {
        lock.lock();
        inFlight.erase(hash);
        cv.notify_all();
        throw;
    }

    lock.lock();
    inFlight.erase(hash);
    insertLocked(hash, canonicalKey, payload);
    cv.notify_all();
    return payload;
}

std::shared_ptr<const FaultPopulation>
WarmStore::faultPopulation(
    const std::string &canonicalKey,
    const std::function<std::shared_ptr<const FaultPopulation>()>
        &synthesize)
{
    const Payload payload =
        getOrSynthesize(canonicalKey, [&synthesize] {
            std::shared_ptr<const FaultPopulation> pop = synthesize();
            std::size_t bytes = sizeof(FaultPopulation);
            for (const auto &line : *pop) {
                bytes += sizeof(line) +
                         line.capacity() * sizeof(FaultCell);
            }
            return Payload{pop, bytes};
        });
    return std::static_pointer_cast<const FaultPopulation>(
        payload.data);
}

void
WarmStore::insertLocked(std::string hash,
                        const std::string &canonicalKey,
                        Payload payload)
{
    const auto it = index.find(hash);
    if (it != index.end()) {
        // Possible when clear() raced the synthesis and a second
        // caller re-synthesized; payloads are deterministic in the
        // key, keep the newest.
        bytesStored -= it->second->payload.bytes;
        bytesStored += payload.bytes;
        it->second->payload = std::move(payload);
        lru.splice(lru.begin(), lru, it->second);
        return;
    }
    bytesStored += payload.bytes;
    lru.push_front(
        Entry{std::move(hash), canonicalKey, std::move(payload)});
    index.emplace(lru.front().hash, lru.begin());
    ++insertCount;
    while (bytesStored > maxBytes && lru.size() > 1) {
        bytesStored -= lru.back().payload.bytes;
        index.erase(lru.back().hash);
        lru.pop_back();
        ++evictCount;
    }
}

void
WarmStore::clear()
{
    std::lock_guard<std::mutex> lock(mtx);
    evictCount += lru.size();
    lru.clear();
    index.clear();
    bytesStored = 0;
}

WarmStore::Stats
WarmStore::stats() const
{
    std::lock_guard<std::mutex> lock(mtx);
    Stats s;
    s.hits = hitCount;
    s.misses = missCount;
    s.insertions = insertCount;
    s.evictions = evictCount;
    s.entries = lru.size();
    s.bytes = bytesStored;
    s.maxBytes = maxBytes;
    return s;
}

Json
WarmStore::Stats::toJson() const
{
    Json doc = Json::object();
    doc.set("hits", Json::number(hits));
    doc.set("misses", Json::number(misses));
    doc.set("insertions", Json::number(insertions));
    doc.set("evictions", Json::number(evictions));
    doc.set("entries", Json::number(std::uint64_t(entries)));
    doc.set("bytes", Json::number(bytes));
    doc.set("max_bytes", Json::number(maxBytes));
    return doc;
}

} // namespace killi::serve
