#include "dist/worker.hh"

#include <unistd.h>

#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "dist/net.hh"
#include "dist/protocol.hh"
#include "dist/store.hh"
#include "dist/wire.hh"
#include "host/experiment.hh"
#include "runner/config_digest.hh"
#include "runner/result_cache.hh"
#include "runner/sweep.hh"
#include "sim/logging.hh"

namespace hmcsim
{

int
runWorker(const WorkerOptions &opts, WorkerStats *stats_out)
{
    ignoreSigpipe();

    NetAddress addr;
    std::string error;
    if (!parseNetAddress(opts.connectSpec, addr, error)) {
        warn("worker: %s", error.c_str());
        return 1;
    }
    const int fd = netConnect(addr, error);
    if (fd < 0) {
        warn("worker: %s", error.c_str());
        return 1;
    }

    // The shared store plugs in below the in-memory cache; claims
    // ensure one simulator per in-flight point across every process
    // sharing the store.
    std::unique_ptr<SharedResultStore> store;
    std::unique_ptr<ClaimedResultStorage> claimed;
    std::unique_ptr<ResultCache> cache;
    if (!opts.storeDir.empty()) {
        store = std::make_unique<SharedResultStore>(
            SharedResultStore::Options{opts.storeDir, 300});
        claimed = std::make_unique<ClaimedResultStorage>(*store);
        cache = std::make_unique<ResultCache>(*claimed);
    }

    if (!writeFrame(fd, formatHello(opts.jobs))) {
        warn("worker: hello failed");
        ::close(fd);
        return 1;
    }
    std::string payload;
    if (!readFrame(fd, payload)) {
        warn("worker: coordinator hung up before welcome");
        ::close(fd);
        return 1;
    }
    std::string header, body;
    splitFrame(payload, header, body);
    bool warmStart = false;
    std::size_t totalPoints = 0;
    if (!parseWelcome(header, warmStart, totalPoints)) {
        warn("worker: bad welcome '%s'", header.c_str());
        ::close(fd);
        return 1;
    }

    const unsigned batch =
        opts.batch ? opts.batch : (opts.jobs > 2 ? opts.jobs : 2);
    WorkerStats stats;
    int exitCode = 0;

    for (;;) {
        if (!writeFrame(fd, formatWant(batch)) ||
            !readFrame(fd, payload)) {
            // A hangup at the want boundary is clean: no leases are
            // outstanding, so every point this worker took has been
            // resulted. The common cause is the coordinator finishing
            // and closing just as we ask for more.
            inform("worker: coordinator closed; draining");
            break;
        }
        splitFrame(payload, header, body);
        if (isDrain(header))
            break;
        std::size_t granted = 0;
        if (!parseGranted(header, granted)) {
            warn("worker: expected granted/drain, got '%s'",
                 header.c_str());
            exitCode = 1;
            break;
        }

        std::vector<std::size_t> indices;
        std::vector<ExperimentConfig> configs;
        indices.reserve(granted);
        configs.reserve(granted);
        bool ok = true;
        for (std::size_t i = 0; i < granted && ok; ++i) {
            if (!readFrame(fd, payload)) {
                warn("worker: coordinator hung up mid-grant");
                ok = false;
                break;
            }
            splitFrame(payload, header, body);
            std::size_t index = 0;
            std::uint64_t digest = 0;
            ExperimentConfig cfg;
            if (!parsePointHeader(header, index, digest) ||
                !decodeExperimentConfig(body, cfg)) {
                warn("worker: malformed point frame");
                ok = false;
                break;
            }
            // The digest check is the codec's enforcement teeth: a
            // field dropped or bent in transit cannot hash back to
            // the coordinator's value.
            if (configDigest(cfg) != digest) {
                warn("worker: config digest mismatch on point %zu "
                     "(wire codec bug?)",
                     index);
                ok = false;
                break;
            }
            // A well-formed frame may still carry a config no model
            // can be built from; refuse it rather than let a
            // constructor's fatal() take the process down.
            if (std::string error; !validateExperimentConfig(cfg, error)) {
                warn("worker: invalid config on point %zu: %s", index,
                     error.c_str());
                ok = false;
                break;
            }
            indices.push_back(index);
            configs.push_back(std::move(cfg));
        }
        if (!ok) {
            exitCode = 1;
            break;
        }

        if (opts.throttleMs)
            std::this_thread::sleep_for(
                std::chrono::milliseconds(opts.throttleMs));

        // Seeds arrived resolved; deriving again would double-mix.
        SweepOptions sweep;
        sweep.jobs = opts.jobs;
        sweep.deriveSeeds = false;
        sweep.warmStart = warmStart;
        sweep.cache = cache.get();
        SweepRunner runner(sweep);
        const std::vector<SweepPointResult> results =
            runner.run(configs);

        for (std::size_t i = 0; i < results.size(); ++i) {
            const SweepPointResult &point = results[i];
            const bool simulated = !point.fromCache;
            ++stats.pointsRun;
            ++(simulated ? stats.simulated : stats.fromStore);
            const std::string fields = serializeResultFields(
                {point.result, point.statDigest});
            if (!writeFrame(fd, formatResult(indices[i], simulated,
                                             fields))) {
                warn("worker: coordinator hung up mid-results");
                exitCode = 1;
                break;
            }
            if (opts.dieAfter >= 0 &&
                stats.pointsRun >=
                    static_cast<std::size_t>(opts.dieAfter)) {
                // Abrupt death on purpose: no drain, no close, leases
                // still outstanding -- the coordinator's reclaim path
                // and the store's flock release both get exercised.
                _exit(3);
            }
        }
        if (exitCode)
            break;
    }

    ::close(fd);
    inform("worker: ran %zu point(s): %zu simulated, %zu from store",
           stats.pointsRun, stats.simulated, stats.fromStore);
    if (stats_out)
        *stats_out = stats;
    return exitCode;
}

} // namespace hmcsim
