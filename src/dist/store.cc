// lint:file(persistence) -- store objects must round-trip bit-exactly: %a hexfloat only.
#include "dist/store.hh"

#include <fcntl.h>
#include <sys/file.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <thread>

#include "runner/kv_codec.hh"
#include "sim/logging.hh"
#include "sim/wallclock.hh"

namespace hmcsim
{

namespace
{

std::string
hexKey(std::uint64_t key)
{
    char buf[24];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(key));
    return buf;
}

/** The claim record: owner pid and lease expiry (epoch seconds). */
template <typename Codec, typename Int>
bool
codeClaim(Codec &io, Int &pid, Int &expires)
{
    return io.line("claim v2") && io.field("pid", pid) &&
           io.field("expires", expires);
}

/** Lease expiry of the claim record at @p path; nullopt when the
 *  record is unreadable or malformed (e.g. its owner is mid-write). */
std::optional<std::uint64_t>
readClaimExpiry(const std::string &path)
{
    std::string text;
    if (!readTextFile(path, text))
        return std::nullopt;
    KvReader in(text);
    std::uint64_t pid = 0;
    std::uint64_t expires = 0;
    if (!codeClaim(in, pid, expires) || !in.atEnd())
        return std::nullopt;
    return expires;
}

} // namespace

SharedResultStore::SharedResultStore(Options opts_)
    : opts(std::move(opts_))
{
    if (opts.dir.empty())
        fatal("shared result store: empty directory");
    std::error_code ec;
    std::filesystem::create_directories(opts.dir + "/objects", ec);
    std::filesystem::create_directories(opts.dir + "/claims", ec);
    if (ec)
        fatal("shared result store: cannot create %s",
              opts.dir.c_str());
}

SharedResultStore::~SharedResultStore()
{
    MutexLock lock(mutex);
    for (const auto &entry : claims) {
        // Abandoned claims (a caller simulated but never saved, e.g.
        // an exception path): unlink so the point is immediately
        // retryable, then close to release the flock.
        ::unlink(claimPath(entry.first).c_str());
        ::close(entry.second);
    }
    claims.clear();
}

std::string
SharedResultStore::objectPath(std::uint64_t key) const
{
    const std::string hex = hexKey(key);
    return opts.dir + "/objects/" + hex.substr(0, 2) + "/" + hex +
           ".result";
}

std::string
SharedResultStore::claimPath(std::uint64_t key) const
{
    return opts.dir + "/claims/" + hexKey(key) + ".claim";
}

std::optional<CachedResult>
SharedResultStore::load(std::uint64_t key)
{
    std::string text;
    if (!readTextFile(objectPath(key), text)) {
        MutexLock lock(mutex);
        ++stats.misses;
        return std::nullopt;
    }

    const std::string_view object(text);
    const std::size_t nl = object.find('\n');
    const std::string_view header = object.substr(0, nl);
    if (header == formatHeader) {
        CachedResult value;
        if (nl != std::string_view::npos &&
            parseResultFields(object.substr(nl + 1), value)) {
            MutexLock lock(mutex);
            ++stats.hits;
            return value;
        }
        warn("result store: ignoring malformed entry %s",
             objectPath(key).c_str());
        MutexLock lock(mutex);
        ++stats.corrupt;
        ++stats.misses;
        return std::nullopt;
    }

    // Prior disk formats are deliberate clean misses: the digest
    // schema may have changed underneath them, so trusting one could
    // serve a result for a *different* configuration. Re-simulate and
    // overwrite in the current format.
    const bool legacy = header.starts_with("hmcsim-result v");
    if (!legacy)
        warn("result store: ignoring malformed entry %s",
             objectPath(key).c_str());
    MutexLock lock(mutex);
    ++(legacy ? stats.legacy : stats.corrupt);
    ++stats.misses;
    return std::nullopt;
}

void
SharedResultStore::save(std::uint64_t key, const CachedResult &value)
{
    const std::string path = objectPath(key);
    std::error_code ec;
    std::filesystem::create_directories(
        std::filesystem::path(path).parent_path(), ec);
    const std::string tmp =
        path + ".tmp." + std::to_string(static_cast<long>(::getpid()));
    {
        std::ofstream out(tmp);
        if (!out) {
            warn("result store: cannot write %s", tmp.c_str());
            releaseClaim(key);
            return;
        }
        out << formatHeader << '\n' << serializeResultFields(value);
        if (!out.flush()) {
            warn("result store: short write to %s", tmp.c_str());
            std::filesystem::remove(tmp, ec);
            releaseClaim(key);
            return;
        }
    }
    std::filesystem::rename(tmp, path, ec);
    if (ec) {
        warn("result store: cannot rename %s -> %s", tmp.c_str(),
             path.c_str());
        std::filesystem::remove(tmp, ec);
    } else {
        MutexLock lock(mutex);
        ++stats.saved;
    }
    releaseClaim(key);
}

SharedResultStore::ClaimOutcome
SharedResultStore::tryClaim(std::uint64_t key)
{
    {
        MutexLock lock(mutex);
        if (claims.count(key))
            return ClaimOutcome::Acquired;
    }

    const std::string path = claimPath(key);
    // Bounded retries: each eviction (unlink + reopen) can race
    // another process doing the same; losing that race looks like
    // Busy, which the caller handles by polling again.
    for (int attempt = 0; attempt < 4; ++attempt) {
        const int fd = ::open(path.c_str(), O_RDWR | O_CREAT, 0644);
        if (fd < 0) {
            warn("result store: cannot open claim %s", path.c_str());
            return ClaimOutcome::Busy;
        }

        if (::flock(fd, LOCK_EX | LOCK_NB) == 0) {
            // We own the point now. A non-empty pre-existing record
            // means the previous owner died with the claim held (the
            // kernel released its flock) -- that is the reclaim path.
            char prev[64] = {};
            const ssize_t got = ::read(fd, prev, sizeof(prev) - 1);
            const bool stolen = got > 0;

            const std::uint64_t pid = static_cast<std::uint64_t>(::getpid());
            const std::uint64_t expires = static_cast<std::uint64_t>(
                wallClockEpochSeconds() + opts.leaseSeconds);
            std::string text;
            KvWriter record(text);
            codeClaim(record, pid, expires);
            if (::ftruncate(fd, 0) != 0 ||
                ::pwrite(fd, text.data(), text.size(), 0) < 0)
                warn("result store: cannot stamp claim %s",
                     path.c_str());

            MutexLock lock(mutex);
            claims[key] = fd;
            ++stats.claimsAcquired;
            if (stolen)
                ++stats.claimsStolen;
            return ClaimOutcome::Acquired;
        }

        // Live flock elsewhere. Honor it unless the lease expired --
        // then evict by unlinking the path: the wedged owner's flock
        // stays on the orphaned inode and a fresh claim file takes
        // the name. A record that does not parse is never evicted.
        const std::optional<std::uint64_t> expires =
            readClaimExpiry(path);
        ::close(fd);
        if (expires && *expires < static_cast<std::uint64_t>(
                                      wallClockEpochSeconds())) {
            ::unlink(path.c_str());
            {
                MutexLock lock(mutex);
                ++stats.claimsStolen;
            }
            continue;
        }
        return ClaimOutcome::Busy;
    }
    return ClaimOutcome::Busy;
}

void
SharedResultStore::releaseClaim(std::uint64_t key)
{
    int fd = -1;
    {
        MutexLock lock(mutex);
        const auto it = claims.find(key);
        if (it == claims.end())
            return;
        fd = it->second;
        claims.erase(it);
    }
    // Unlink before close: the flock guards the window, so no other
    // process can mistake the record for a live claim in between.
    ::unlink(claimPath(key).c_str());
    ::close(fd);
}

SharedResultStore::Counters
SharedResultStore::counters() const
{
    MutexLock lock(mutex);
    return stats;
}

ClaimedResultStorage::ClaimedResultStorage(SharedResultStore &store,
                                           unsigned poll_ms)
    : store(store), pollMs(poll_ms ? poll_ms : 1)
{
}

std::optional<CachedResult>
ClaimedResultStorage::load(std::uint64_t key)
{
    for (;;) {
        if (auto value = store.load(key)) {
            // Rare: the result landed between a failed load and our
            // successful claim (or a duplicate simulation elsewhere).
            store.releaseClaim(key);
            return value;
        }
        if (store.tryClaim(key) ==
            SharedResultStore::ClaimOutcome::Acquired) {
            // Re-check after winning the claim: the previous owner
            // may have published between our load and their release.
            if (auto value = store.load(key)) {
                store.releaseClaim(key);
                return value;
            }
            return std::nullopt; // Caller simulates; save() releases.
        }
        // A live claimant is simulating this point right now; their
        // result is our result (determinism), so wait for it.
        std::this_thread::sleep_for(
            std::chrono::milliseconds(pollMs));
    }
}

void
ClaimedResultStorage::save(std::uint64_t key, const CachedResult &value)
{
    store.save(key, value); // Releases the claim.
}

} // namespace hmcsim
