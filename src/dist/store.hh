/**
 * @file
 * Shared on-disk result store: the one persistence tier below
 * ResultCache, for one process or many.
 *
 * Any number of processes -- sweeps, workers, serve sessions, on one
 * machine or many sharing a filesystem -- may point at the same store
 * directory. Results are content-addressed by configDigest(), so a
 * point measured anywhere is a hit everywhere, and every operation is
 * crash-safe:
 *
 *   <dir>/objects/<hh>/<16-hex-digest>.result   completed results
 *   <dir>/claims/<16-hex-digest>.claim          in-flight claims
 *
 * Objects are sharded by the first two digest hex digits (directories
 * stay small at millions of entries) and written via temp-file +
 * atomic rename: readers see a whole entry or none. The object format
 * is an "hmcsim-result v5" header over serializeResultFields()'s
 * body; v1-v4 entries read as clean *legacy* misses -- an old-format
 * entry can never poison a hit, it just gets re-simulated and
 * rewritten.
 *
 * Claims arbitrate who simulates an in-flight point. A claim is an
 * advisory flock(LOCK_EX) on the claim file, held for the lifetime of
 * the simulation; the file's text is a "claim v2" record (KvWriter
 * lines) of the owner pid and an expiry stamp
 * (wallClockEpochSeconds() + leaseSeconds). Liveness comes in two
 * layers: a *crashed* owner's flock is released by the kernel, so the
 * next tryClaim() takes the lock over the stale record (counted as
 * stolen); a *wedged* owner that still holds the flock is evicted
 * after the lease expires by unlinking the claim path and re-creating
 * it (the dead flock stays on the orphaned inode). A held claim whose
 * record does not parse is never evicted. Claim arbitration only ever
 * changes which process simulates a point -- results are
 * deterministic, so a rare double-simulation writes the same bytes
 * twice and is harmless.
 */

#ifndef HMCSIM_DIST_STORE_HH
#define HMCSIM_DIST_STORE_HH

#include <cstdint>
#include <map>
#include <string>

#include "hmcsim/annotations.hh"
#include "runner/result_cache.hh"

namespace hmcsim
{

/** Concurrency-safe result store shared between processes. */
class SharedResultStore : public ResultStorage
{
  public:
    struct Options
    {
        /** Store root; created on demand. */
        std::string dir;
        /** Claim lease length; an expired claim may be evicted even
         *  if its owner still holds the flock. */
        std::int64_t leaseSeconds = 300;
    };

    explicit SharedResultStore(Options opts);
    ~SharedResultStore() override;

    SharedResultStore(const SharedResultStore &) = delete;
    SharedResultStore &operator=(const SharedResultStore &) = delete;

    /** Load a completed result; nullopt on miss/legacy/corrupt. */
    std::optional<CachedResult> load(std::uint64_t key) override;

    /** Persist @p value (atomic rename) and release any claim this
     *  process holds on @p key. */
    void save(std::uint64_t key, const CachedResult &value) override;

    enum class ClaimOutcome
    {
        Acquired, ///< This process now owns the point.
        Busy,     ///< A live claim exists elsewhere; poll again.
    };

    /**
     * Try to become the simulator of @p key. Acquired claims are held
     * (flock + open fd) until save() or releaseClaim(). Steals dead
     * owners' claims and evicts expired ones (see file docs).
     */
    ClaimOutcome tryClaim(std::uint64_t key);

    /** Drop a held claim without saving (no-op if not held). */
    void releaseClaim(std::uint64_t key);

    /** Monotonic per-instance counters (diagnostics/tests). */
    struct Counters
    {
        std::uint64_t hits = 0;
        std::uint64_t misses = 0;
        /** v1-v3 entries encountered (clean misses). */
        std::uint64_t legacy = 0;
        /** Malformed/truncated entries skipped (clean misses). */
        std::uint64_t corrupt = 0;
        std::uint64_t saved = 0;
        std::uint64_t claimsAcquired = 0;
        /** Claims taken over from a crashed or expired owner. */
        std::uint64_t claimsStolen = 0;
    };

    Counters counters() const;

    const std::string &directory() const { return opts.dir; }

    /** On-disk object path for @p key (exposed for tests). */
    std::string objectPath(std::uint64_t key) const;
    std::string claimPath(std::uint64_t key) const;

    /** Header line of the store's object format. */
    static constexpr const char *formatHeader = "hmcsim-result v5";

  private:
    Options opts;

    mutable Mutex mutex;
    /** Held claims: key -> open, flocked claim-file fd. Ordered map:
     *  the destructor iterates it to release leftovers. */
    std::map<std::uint64_t, int> claims GUARDED_BY(mutex);
    Counters stats GUARDED_BY(mutex);
};

/**
 * ResultStorage adapter that turns a SharedResultStore into a
 * work-dividing tier for ResultCache: load() either returns the
 * stored result or *blocks until this process owns the point* --
 * waiting out a live claimant elsewhere and returning their result
 * when it lands, or stealing the claim if they die. A nullopt return
 * therefore means "you simulate it"; the subsequent save() publishes
 * the result and releases the claim. Plugged into ResultCache, this
 * makes any number of processes sweeping the same grid partition the
 * points between them with no coordinator at all.
 */
class ClaimedResultStorage : public ResultStorage
{
  public:
    /** @param poll_ms Sleep between claim polls while waiting out a
     *  live claimant. */
    explicit ClaimedResultStorage(SharedResultStore &store,
                                  unsigned poll_ms = 10);

    std::optional<CachedResult> load(std::uint64_t key) override;
    void save(std::uint64_t key, const CachedResult &value) override;

  private:
    SharedResultStore &store;
    unsigned pollMs;
};

} // namespace hmcsim

#endif // HMCSIM_DIST_STORE_HH
