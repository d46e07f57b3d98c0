/**
 * @file
 * Content-addressed cache of measured experiment results.
 *
 * Keys are configDigest() values: a result is reusable exactly when
 * the full configuration (pattern, mix, size, mode, ports, windows,
 * seed, device, calibration) hashes identically. The cache keeps a
 * bounded in-memory LRU map and, below it, an optional persistence
 * tier: either the classic flat directory of <digest>.result text
 * files, or any ResultStorage implementation (the distributed shared
 * store in dist/store.hh plugs in here), so a re-run of a bench suite
 * or sweep skips already-measured points across processes.
 *
 * The on-disk format round-trips doubles as C99 hex floats (%a), so a
 * cache hit is bit-identical to the original measurement -- the
 * determinism contract (serial == parallel == cached) survives
 * persistence. Writes go to a temporary file and land via atomic
 * rename, so a concurrent or crashed writer can never leave a
 * half-written entry behind; a truncated or otherwise malformed entry
 * is skipped as a clean miss and counted, never trusted.
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
    /**
     * @param dir Persistence directory; empty = in-memory only. The
     *        directory is created on first store if missing.
     * @param max_entries In-memory LRU capacity (disk files are never
     *        evicted).
     */
    explicit ResultCache(std::string dir = "",
                         std::size_t max_entries = 4096);

    /**
     * Back the cache with an external storage tier instead of the
     * flat directory (e.g. dist/store.hh's SharedResultStore).
     * @p storage must outlive the cache.
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
    /** Malformed/truncated disk entries skipped as clean misses. */
    std::uint64_t corruptEntries() const;
    /** Entries currently resident in memory. */
    std::size_t size() const;

    /** Canonical text serialization (exposed for tests/tooling). */
    static std::string serialize(const CachedResult &value);
    /** Parse serialize() output; nullopt on malformed input. */
    static std::optional<CachedResult>
    deserialize(const std::string &text);

  private:
    void insertLocked(std::uint64_t key, const CachedResult &value)
        REQUIRES(mutex);
    std::string pathFor(std::uint64_t key) const;
    std::optional<CachedResult> loadFromDir(std::uint64_t key);
    void saveToDir(std::uint64_t key, const CachedResult &value);

    struct Entry
    {
        CachedResult value;
        std::list<std::uint64_t>::iterator lruIt;
    };

    mutable Mutex mutex;
    /** Immutable after construction; safe to read without the lock. */
    std::string dir;
    /** Immutable after construction; external persistence tier. */
    ResultStorage *storage = nullptr;
    std::size_t maxEntries;
    std::unordered_map<std::uint64_t, Entry> entries GUARDED_BY(mutex);
    /** Front = most recently used. */
    std::list<std::uint64_t> lru GUARDED_BY(mutex);
    std::uint64_t numHits GUARDED_BY(mutex) = 0;
    std::uint64_t numMisses GUARDED_BY(mutex) = 0;
    std::uint64_t numCorrupt GUARDED_BY(mutex) = 0;
};

} // namespace hmcsim

#endif // HMCSIM_RUNNER_RESULT_CACHE_HH
