/**
 * @file
 * Content-addressed cache of measured experiment results.
 *
 * Keys are configDigest() values: a result is reusable exactly when
 * the full configuration (pattern, mix, size, mode, ports, windows,
 * seed, device, calibration) hashes identically. The cache keeps a
 * bounded in-memory LRU map and, below it, an optional persistence
 * tier: any ResultStorage implementation. The one on-disk tier is
 * dist/store.hh's SharedResultStore, so a re-run of a bench suite or
 * sweep skips already-measured points across processes.
 *
 * Persisted results share one field body (serializeResultFields):
 * doubles round-trip as C99 hex floats (%a), so a storage hit is
 * bit-identical to the original measurement -- the determinism
 * contract (serial == parallel == cached) survives persistence.
 *
 * Thread safety: all public members are safe to call concurrently;
 * the sweep runner's workers share one instance. Persistence I/O runs
 * outside the cache lock, so a slow storage tier (NFS, a claim wait)
 * stalls only the requesting thread.
 */

#ifndef HMCSIM_RUNNER_RESULT_CACHE_HH
#define HMCSIM_RUNNER_RESULT_CACHE_HH

#include <cstdint>
#include <list>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>

#include "hmcsim/annotations.hh"
#include "host/experiment.hh"

namespace hmcsim
{

/** What the cache stores per configuration digest. */
struct CachedResult
{
    MeasurementResult result;
    /** StatRegistry::digest() of the run that produced the result. */
    std::uint64_t statDigest = 0;
};

/**
 * Serialize every CachedResult field (no version header) in the
 * canonical key-value text form shared by every persisted result
 * format; the caller prepends its own "hmcsim-result vN" header line.
 * Doubles round-trip bit-exactly (%a hexfloat).
 */
std::string serializeResultFields(const CachedResult &value);

/** Parse serializeResultFields() output: @p text is an object's
 *  text after its header line, and must hold every field and nothing
 *  else. False on malformed input (@p out is then left unchanged). */
bool parseResultFields(std::string_view text, CachedResult &out);

/**
 * A persistence tier below ResultCache's in-memory LRU. load() and
 * save() may be called concurrently from many threads; a load of a
 * key that was never saved returns nullopt. Implementations must keep
 * the bit-exactness contract: load() after save() reproduces the
 * CachedResult exactly.
 */
class ResultStorage
{
  public:
    virtual ~ResultStorage() = default;

    virtual std::optional<CachedResult> load(std::uint64_t key) = 0;
    virtual void save(std::uint64_t key, const CachedResult &value) = 0;
};

class ResultCache
{
  public:
    /** In-memory only. @param max_entries LRU capacity. */
    explicit ResultCache(std::size_t max_entries = 4096);

    /**
     * Back the in-memory LRU with a persistence tier (e.g.
     * dist/store.hh's SharedResultStore); storage entries are never
     * evicted. @p storage must outlive the cache.
     */
    explicit ResultCache(ResultStorage &storage,
                         std::size_t max_entries = 4096);

    ResultCache(const ResultCache &) = delete;
    ResultCache &operator=(const ResultCache &) = delete;

    /** Find a result by config digest (memory first, then storage). */
    std::optional<CachedResult> lookup(std::uint64_t key);

    /** Store a result under @p key (memory + persistence tier). */
    void store(std::uint64_t key, const CachedResult &value);

    std::uint64_t hits() const;
    std::uint64_t misses() const;
    /** Entries currently resident in memory. */
    std::size_t size() const;

  private:
    void insertLocked(std::uint64_t key, const CachedResult &value)
        REQUIRES(mutex);

    struct Entry
    {
        CachedResult value;
        std::list<std::uint64_t>::iterator lruIt;
    };

    mutable Mutex mutex;
    /** Immutable after construction; safe to read without the lock. */
    ResultStorage *storage = nullptr;
    std::size_t maxEntries;
    std::unordered_map<std::uint64_t, Entry> entries GUARDED_BY(mutex);
    /** Front = most recently used. */
    std::list<std::uint64_t> lru GUARDED_BY(mutex);
    std::uint64_t numHits GUARDED_BY(mutex) = 0;
    std::uint64_t numMisses GUARDED_BY(mutex) = 0;
};

} // namespace hmcsim

#endif // HMCSIM_RUNNER_RESULT_CACHE_HH
