// lint:file(persistence) -- on-disk results must round-trip bit-exactly: %a hexfloat only, enforced by hmcsim-lint.
#include "runner/result_cache.hh"

#include "runner/kv_codec.hh"

namespace hmcsim
{

namespace
{

template <typename Codec, typename Stats>
bool
codeStats(Codec &io, const char *key, Stats &s)
{
    SampleStats::Raw raw = s.raw();
    if (!(io.key(key) && io.value(raw.count) && io.value(raw.sum) &&
          io.value(raw.min) && io.value(raw.max) && io.endLine()))
        return false;
    if constexpr (!std::is_const_v<Stats>)
        s = SampleStats::fromRaw(raw);
    return true;
}

/**
 * The result field list: serializes through a KvWriter (Value =
 * const CachedResult) or parses through a KvReader.
 */
template <typename Codec, typename Value>
bool
codeResult(Codec &io, Value &value)
{
    auto &m = value.result;
    return io.key("patternName") && io.text(m.patternName) &&
           io.endLine() &&
           io.field("mix", m.mix, RequestMix::Atomic) &&
           io.field("requestSize", m.requestSize) &&
           io.field("rawGBps", m.rawGBps) && io.field("mrps", m.mrps) &&
           io.field("readMrps", m.readMrps) &&
           io.field("writeMrps", m.writeMrps) &&
           io.field("readPayloadGBps", m.readPayloadGBps) &&
           io.field("writePayloadGBps", m.writePayloadGBps) &&
           codeStats(io, "readLatencyNs", m.readLatencyNs) &&
           codeStats(io, "writeLatencyNs", m.writeLatencyNs) &&
           io.field("readLatencyP50Ns", m.readLatencyP50Ns) &&
           io.field("readLatencyP99Ns", m.readLatencyP99Ns) &&
           io.field("readLatencyP999Ns", m.readLatencyP999Ns) &&
           io.field("statDigest", value.statDigest);
}

} // namespace

std::string
serializeResultFields(const CachedResult &value)
{
    std::string text;
    KvWriter out(text);
    codeResult(out, value);
    return text;
}

bool
parseResultFields(std::string_view text, CachedResult &out)
{
    KvReader in(text);
    CachedResult value;
    if (!codeResult(in, value) || !in.atEnd())
        return false;
    out = std::move(value);
    return true;
}

ResultCache::ResultCache(std::size_t max_entries)
    : maxEntries(max_entries ? max_entries : 1)
{
}

ResultCache::ResultCache(ResultStorage &storage,
                         std::size_t max_entries)
    : storage(&storage), maxEntries(max_entries ? max_entries : 1)
{
}

void
ResultCache::insertLocked(std::uint64_t key, const CachedResult &value)
{
    const auto it = entries.find(key);
    if (it != entries.end()) {
        lru.erase(it->second.lruIt);
        lru.push_front(key);
        it->second = {value, lru.begin()};
        return;
    }
    lru.push_front(key);
    entries.emplace(key, Entry{value, lru.begin()});
    while (entries.size() > maxEntries) {
        entries.erase(lru.back());
        lru.pop_back();
    }
}

std::optional<CachedResult>
ResultCache::lookup(std::uint64_t key)
{
    {
        MutexLock lock(mutex);
        const auto it = entries.find(key);
        if (it != entries.end()) {
            lru.erase(it->second.lruIt);
            lru.push_front(key);
            it->second.lruIt = lru.begin();
            ++numHits;
            return it->second.value;
        }
    }

    // Persistence-tier I/O runs unlocked so a slow disk or claim wait
    // stalls only this thread. Two threads may both miss here and
    // simulate the same point once each; the results are identical by
    // the determinism contract, so the duplicate write is harmless.
    std::optional<CachedResult> loaded;
    if (storage)
        loaded = storage->load(key);

    MutexLock lock(mutex);
    if (loaded) {
        insertLocked(key, *loaded);
        ++numHits;
        return loaded;
    }
    ++numMisses;
    return std::nullopt;
}

void
ResultCache::store(std::uint64_t key, const CachedResult &value)
{
    {
        MutexLock lock(mutex);
        insertLocked(key, value);
    }
    if (storage)
        storage->save(key, value);
}

std::uint64_t
ResultCache::hits() const
{
    MutexLock lock(mutex);
    return numHits;
}

std::uint64_t
ResultCache::misses() const
{
    MutexLock lock(mutex);
    return numMisses;
}

std::size_t
ResultCache::size() const
{
    MutexLock lock(mutex);
    return entries.size();
}

} // namespace hmcsim
