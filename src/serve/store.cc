#include "serve/store.hh"

#include "common/hash.hh"
#include "common/log.hh"

namespace killi::serve
{

Json
StoreStats::toJson() const
{
    Json doc = Json::object();
    doc.set("hits", Json::number(hits));
    doc.set("misses", Json::number(misses));
    doc.set("insertions", Json::number(insertions));
    doc.set("evictions", Json::number(evictions));
    doc.set("entries", Json::number(std::uint64_t(entries)));
    if (maxEntries != std::numeric_limits<std::size_t>::max())
        doc.set("max_entries", Json::number(std::uint64_t(maxEntries)));
    doc.set("bytes", Json::number(bytes));
    if (maxBytes != std::numeric_limits<std::uint64_t>::max())
        doc.set("max_bytes", Json::number(maxBytes));
    doc.set("hit_rate", Json::number(hitRate()));
    return doc;
}

template <class T>
ContentStore<T>::ContentStore(Bounds bounds,
                              metrics::MetricsRegistry *reg,
                              const std::string &prefix)
    : bounds(bounds)
{
    if (!reg)
        return;
    // Scrape-time callbacks pull from the store's own accounting
    // under its mutex, which is safe because the store never touches
    // the registry after construction.
    reg->counterFn(prefix + "_hits_total",
                   "Lookups served from memory (waiters on an "
                   "in-flight synthesis count here)",
                   {}, [this] { return stats().hits; });
    reg->counterFn(prefix + "_misses_total",
                   "Lookups that required a run or a synthesis (for "
                   "the warm store, exactly the synthesis count)",
                   {}, [this] { return stats().misses; });
    reg->counterFn(prefix + "_insertions_total", "Entries inserted",
                   {}, [this] { return stats().insertions; });
    reg->counterFn(prefix + "_evictions_total",
                   "Entries evicted by the bounds (and dropped by "
                   "drain-time clear)",
                   {}, [this] { return stats().evictions; });
    reg->gaugeFn(prefix + "_entries", "Entries resident", {},
                 [this] { return double(stats().entries); });
    reg->gaugeFn(prefix + "_bytes", "Accounted value bytes resident",
                 {}, [this] { return double(stats().bytes); });
    hitLatency = &reg->histogram(
        prefix + "_hit_seconds", "Latency of lookups that hit", {},
        // Hits are microseconds, not sweep-seconds: start the
        // buckets at 1 us.
        metrics::HistogramSpec{1e-6, 2.0, 24});
}

template <class T>
std::string
ContentStore<T>::hashKey(const std::string &canonicalKey)
{
    return sha256Hex(canonicalKey);
}

template <class T>
typename ContentStore<T>::Iter
ContentStore<T>::findLocked(const std::string &hash,
                            const std::string &canonicalKey)
{
    const auto it = index.find(hash);
    if (it == index.end())
        return lru.end();
    // A 256-bit collision is not a realistic event; a mismatch here
    // means the canonicalization itself is broken.
    if (it->second->canonicalKey != canonicalKey) {
        panic("ContentStore: content-hash collision for key '%s'",
              canonicalKey.c_str());
    }
    return it->second;
}

template <class T>
typename ContentStore<T>::Value
ContentStore<T>::hitLocked(Iter it)
{
    lru.splice(lru.begin(), lru, it);
    ++tally.hits;
    return it->value;
}

template <class T>
void
ContentStore<T>::observeHit(std::chrono::steady_clock::time_point t0)
{
    if (hitLatency) {
        hitLatency->observe(std::chrono::duration<double>(
                                std::chrono::steady_clock::now() - t0)
                                .count());
    }
}

template <class T>
typename ContentStore<T>::Value
ContentStore<T>::lookup(const std::string &canonicalKey,
                        std::string *hashOut)
{
    const auto t0 = std::chrono::steady_clock::now();
    const std::string hash = hashKey(canonicalKey);
    if (hashOut)
        *hashOut = hash;
    Value value;
    {
        std::lock_guard<std::mutex> lock(mtx);
        const Iter it = findLocked(hash, canonicalKey);
        if (it == lru.end()) {
            ++tally.misses;
            return nullptr;
        }
        value = hitLocked(it);
    }
    observeHit(t0);
    return value;
}

template <class T>
typename ContentStore<T>::Value
ContentStore<T>::lookupByHash(const std::string &hash)
{
    const auto t0 = std::chrono::steady_clock::now();
    Value value;
    {
        std::lock_guard<std::mutex> lock(mtx);
        const auto it = index.find(hash);
        if (it == index.end())
            return nullptr;
        value = hitLocked(it->second);
    }
    observeHit(t0);
    return value;
}

template <class T>
std::string
ContentStore<T>::insert(const std::string &canonicalKey, Value value,
                        std::size_t bytes)
{
    std::string hash = hashKey(canonicalKey);
    std::lock_guard<std::mutex> lock(mtx);
    insertLocked(hash, canonicalKey, std::move(value), bytes);
    return hash;
}

template <class T>
typename ContentStore<T>::Value
ContentStore<T>::getOrSynthesize(const std::string &canonicalKey,
                                 const Synthesizer &synthesize)
{
    const auto t0 = std::chrono::steady_clock::now();
    const std::string hash = hashKey(canonicalKey);
    std::unique_lock<std::mutex> lock(mtx);
    // While another caller is synthesizing this key, wait for its
    // insert instead of duplicating the work.
    Iter it;
    cv.wait(lock, [&] {
        it = findLocked(hash, canonicalKey);
        return it != lru.end() || !inFlight.count(hash);
    });
    if (it != lru.end()) {
        Value value = hitLocked(it);
        lock.unlock();
        observeHit(t0);
        return value;
    }
    inFlight.insert(hash);
    ++tally.misses;
    lock.unlock();

    std::pair<Value, std::size_t> made;
    try {
        made = synthesize();
    } catch (...) {
        lock.lock();
        inFlight.erase(hash);
        cv.notify_all();
        throw;
    }

    lock.lock();
    inFlight.erase(hash);
    insertLocked(hash, canonicalKey, made.first, made.second);
    cv.notify_all();
    return made.first;
}

template <class T>
void
ContentStore<T>::insertLocked(const std::string &hash,
                              const std::string &canonicalKey,
                              Value value, std::size_t bytes)
{
    const Iter it = findLocked(hash, canonicalKey);
    if (it != lru.end()) {
        // Concurrent submits of one uncached point both compute it,
        // or clear() raced a synthesis; keep the newest.
        tally.bytes = tally.bytes - it->bytes + bytes;
        it->value = std::move(value);
        it->bytes = bytes;
        lru.splice(lru.begin(), lru, it);
    } else {
        tally.bytes += bytes;
        lru.push_front(Entry{hash, canonicalKey, std::move(value), bytes});
        index.emplace(hash, lru.begin());
        ++tally.insertions;
    }
    while (lru.size() > 1 && (lru.size() > bounds.maxEntries ||
                              tally.bytes > bounds.maxBytes)) {
        tally.bytes -= lru.back().bytes;
        index.erase(lru.back().hash);
        lru.pop_back();
        ++tally.evictions;
    }
}

template <class T>
void
ContentStore<T>::clear()
{
    std::lock_guard<std::mutex> lock(mtx);
    tally.evictions += lru.size();
    lru.clear();
    index.clear();
    tally.bytes = 0;
}

template <class T>
StoreStats
ContentStore<T>::stats() const
{
    std::lock_guard<std::mutex> lock(mtx);
    StoreStats s = tally;
    s.entries = lru.size();
    s.maxEntries = bounds.maxEntries;
    s.maxBytes = bounds.maxBytes;
    return s;
}

template class ContentStore<std::string>;
template class ContentStore<FaultPopulation>;

} // namespace killi::serve
