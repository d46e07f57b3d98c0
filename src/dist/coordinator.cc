#include "dist/coordinator.hh"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <deque>
#include <list>
#include <utility>

#include "dist/net.hh"
#include "dist/protocol.hh"
#include "dist/wire.hh"
#include "runner/config_digest.hh"
#include "sim/logging.hh"

namespace hmcsim
{

namespace
{

/** One worker connection's state machine. */
struct Connection
{
    int fd = -1;
    bool helloDone = false;
    /** Raw bytes received but not yet framed. */
    std::string inBuffer;
    /** Canonical indices leased here and not yet resulted. */
    std::vector<std::size_t> outstanding;
    /** A want we could not serve yet (0 = none parked). */
    unsigned parkedWant = 0;
};

/** The whole session, single-threaded around poll(). */
struct Session
{
    const DistSweepOptions &opts;
    std::vector<ExperimentConfig> &configs;
    std::vector<std::uint64_t> digests;
    std::vector<SweepPointResult> results;
    std::vector<bool> filled;
    std::size_t numFilled = 0;
    /** Canonical indices not yet leased, lowest first (keeps
     *  warm-start groups contiguous on one worker). */
    std::deque<std::size_t> pending;
    std::list<Connection> connections;
    DistSweepStats stats;

    explicit Session(const DistSweepOptions &opts_,
                     std::vector<ExperimentConfig> &configs_)
        : opts(opts_), configs(configs_)
    {
    }

    void dropConnection(std::list<Connection>::iterator it);
    bool handleFrame(Connection &conn, const std::string &payload);
    void serveWant(Connection &conn, unsigned max_points);
    void serveParkedWants();
    bool done() const { return numFilled == results.size(); }
};

void
Session::dropConnection(std::list<Connection>::iterator it)
{
    if (!it->outstanding.empty()) {
        // Reclaim: the worker died (or quit) with leases held. The
        // points return to the queue in canonical order; whoever
        // picks them up produces the same bytes, so the output is
        // unaffected -- this path only costs wall time.
        stats.reclaimed += it->outstanding.size();
        inform("dist: reclaiming %zu lease(s) from a lost worker",
               it->outstanding.size());
        for (const std::size_t index : it->outstanding)
            pending.push_back(index);
    }
    ::close(it->fd);
    connections.erase(it);
    serveParkedWants();
}

void
Session::serveWant(Connection &conn, unsigned max_points)
{
    if (pending.empty()) {
        // Nothing to lease right now. If reclaim may still produce
        // work, park the want; the worker blocks on its read. Once
        // everything is filled the main loop sends the drain.
        conn.parkedWant = max_points ? max_points : 1;
        return;
    }
    std::size_t grant = max_points ? max_points : 1;
    if (grant > pending.size())
        grant = pending.size();

    if (!writeFrame(conn.fd, formatGranted(grant)))
        return; // Death is detected by the poll loop.
    for (std::size_t i = 0; i < grant; ++i) {
        const std::size_t index = pending.front();
        pending.pop_front();
        conn.outstanding.push_back(index);
        const std::string blob = encodeExperimentConfig(configs[index]);
        if (!writeFrame(conn.fd,
                        formatPoint(index, digests[index], blob)))
            return;
    }
    conn.parkedWant = 0;
}

void
Session::serveParkedWants()
{
    for (Connection &conn : connections) {
        if (pending.empty())
            break;
        if (conn.parkedWant)
            serveWant(conn, conn.parkedWant);
    }
}

bool
Session::handleFrame(Connection &conn, const std::string &payload)
{
    std::string header, body;
    splitFrame(payload, header, body);

    if (!conn.helloDone) {
        unsigned jobs = 0;
        if (!parseHello(header, jobs)) {
            warn("dist: bad hello '%s'; dropping connection",
                 header.c_str());
            return false;
        }
        conn.helloDone = true;
        ++stats.workersSeen;
        return writeFrame(conn.fd,
                          formatWelcome(opts.sweep.warmStart,
                                        results.size()));
    }

    unsigned want = 0;
    if (parseWant(header, want)) {
        if (done())
            return writeFrame(conn.fd, formatDrain());
        serveWant(conn, want);
        return true;
    }

    std::size_t index = 0;
    bool simulated = false;
    if (parseResultHeader(header, index, simulated)) {
        if (index >= results.size()) {
            warn("dist: result index %zu out of range", index);
            return false;
        }
        for (auto it = conn.outstanding.begin();
             it != conn.outstanding.end(); ++it) {
            if (*it == index) {
                conn.outstanding.erase(it);
                break;
            }
        }
        if (filled[index])
            return true; // Duplicate after a reclaim race: identical
                         // bytes, first landing won.
        CachedResult value;
        if (!parseResultFields(body, value)) {
            warn("dist: malformed result body for point %zu; "
                 "re-queueing",
                 index);
            pending.push_back(index);
            serveParkedWants();
            return true;
        }

        SweepPointResult &point = results[index];
        point.index = index;
        point.config = configs[index];
        point.digest = digests[index];
        point.statDigest = value.statDigest;
        point.result = value.result;
        point.fromCache = !simulated;
        filled[index] = true;
        ++numFilled;
        if (simulated)
            ++stats.simulated;
        else
            ++stats.fromStore;
        if (opts.sweep.cache)
            opts.sweep.cache->store(point.digest, value);
        return true;
    }

    warn("dist: unknown frame '%s'; dropping connection",
         header.c_str());
    return false;
}

} // namespace

std::vector<SweepPointResult>
runDistributedSweep(std::vector<ExperimentConfig> configs,
                    const DistSweepOptions &opts,
                    DistSweepStats *stats_out)
{
    ignoreSigpipe();

    // Identical front half to SweepRunner::run(): seeds derive from
    // content before any scheduling exists, so a point's identity --
    // and therefore its digest, its seed, and its result -- is fixed
    // no matter which worker eventually runs it.
    if (opts.sweep.deriveSeeds) {
        for (ExperimentConfig &cfg : configs)
            cfg.seed = deriveSeed(opts.sweep.sweepSeed, cfg);
    }

    Session session(opts, configs);
    session.results.resize(configs.size());
    session.filled.assign(configs.size(), false);
    session.digests.reserve(configs.size());
    for (const ExperimentConfig &cfg : configs)
        session.digests.push_back(configDigest(cfg));
    session.stats.points = configs.size();

    // Cache pre-pass, mirroring SweepRunner::runPoint()'s lookup: a
    // hit fills the slot locally and is never leased out.
    for (std::size_t i = 0; i < configs.size(); ++i) {
        if (opts.sweep.cache) {
            if (const auto cached =
                    opts.sweep.cache->lookup(session.digests[i])) {
                SweepPointResult &point = session.results[i];
                point.index = i;
                point.config = configs[i];
                point.digest = session.digests[i];
                point.result = cached->result;
                point.statDigest = cached->statDigest;
                point.fromCache = true;
                session.filled[i] = true;
                ++session.numFilled;
                ++session.stats.fromCoordinatorCache;
                continue;
            }
        }
        session.pending.push_back(i);
    }

    if (!session.done()) {
        NetAddress addr;
        std::string error;
        if (!parseNetAddress(opts.listenSpec, addr, error))
            fatal("dist: %s", error.c_str());
        const int listenFd = netListen(addr, error);
        if (listenFd < 0)
            fatal("dist: %s", error.c_str());
        inform("dist: coordinating %zu point(s) on %s",
               session.pending.size(),
               describeNetAddress(addr).c_str());

        while (!session.done()) {
            std::vector<pollfd> fds;
            fds.push_back({listenFd, POLLIN, 0});
            for (const Connection &conn : session.connections)
                fds.push_back({conn.fd, POLLIN, 0});

            const int ready =
                ::poll(fds.data(),
                       static_cast<nfds_t>(fds.size()), -1);
            if (ready < 0) {
                if (errno == EINTR)
                    continue;
                fatal("dist: poll failed");
            }

            if (fds[0].revents & POLLIN) {
                const int fd = ::accept(listenFd, nullptr, nullptr);
                if (fd >= 0) {
                    Connection conn;
                    conn.fd = fd;
                    session.connections.push_back(std::move(conn));
                }
            }

            // Walk connections against their recorded poll slots;
            // the list can shrink mid-walk when a peer drops.
            std::size_t slot = 1;
            for (auto it = session.connections.begin();
                 it != session.connections.end() &&
                 slot < fds.size();
                 ++slot) {
                auto cur = it++;
                const short revents = fds[slot].revents;
                if (!(revents & (POLLIN | POLLHUP | POLLERR)))
                    continue;

                char buf[65536];
                const ssize_t got =
                    ::read(cur->fd, buf, sizeof(buf));
                if (got <= 0) {
                    if (got < 0 && (errno == EINTR ||
                                    errno == EAGAIN))
                        continue;
                    session.dropConnection(cur);
                    continue;
                }
                cur->inBuffer.append(buf,
                                     static_cast<std::size_t>(got));

                bool alive = true;
                std::string payload;
                while (alive &&
                       extractFrame(cur->inBuffer, payload))
                    alive = session.handleFrame(*cur, payload);
                if (!alive)
                    session.dropConnection(cur);
                if (session.done())
                    break;
            }
        }

        // Best-effort goodbye so workers exit instead of blocking on
        // a parked want forever.
        for (Connection &conn : session.connections) {
            writeFrame(conn.fd, formatDrain());
            ::close(conn.fd);
        }
        session.connections.clear();
        ::close(listenFd);
        if (addr.isUnix)
            ::unlink(addr.path.c_str());
    }

    // Identical back half to SweepRunner::run(): sinks on this
    // thread, canonical order, after completion.
    for (ResultSink *sink : opts.sweep.sinks) {
        for (const SweepPointResult &point : session.results)
            sink->write(point);
        sink->finish();
    }

    inform("dist: %zu point(s): %zu simulated, %zu from store, "
           "%zu from cache, %zu reclaimed, %u worker(s)",
           session.stats.points, session.stats.simulated,
           session.stats.fromStore,
           session.stats.fromCoordinatorCache,
           session.stats.reclaimed, session.stats.workersSeen);
    if (stats_out)
        *stats_out = session.stats;
    return std::move(session.results);
}

std::vector<SweepPointResult>
runDistributedSweep(const SweepAxes &axes, const DistSweepOptions &opts,
                    DistSweepStats *stats)
{
    return runDistributedSweep(axes.expand(), opts, stats);
}

} // namespace hmcsim
