#include "service/fleet.hh"

#include "gups/address_generator.hh"
#include "runner/thread_pool.hh"
#include "sim/logging.hh"
#include "sim/random.hh"

namespace hmcsim
{

namespace
{

/** Fixed salts decorrelating the routing hashes from each other and
 *  from the generator streams. Constants, not seeds: keyed routing is
 *  a shard map, stable across campaigns by design. */
constexpr std::uint64_t keyRouteSalt = 0x8f5c28f5c28f5c29ULL;
constexpr std::uint64_t uniformRouteSalt = 0x6b43a9b5e4b4d2c7ULL;
constexpr std::uint64_t hotCoinSalt = 0x3c79ac492ba7b653ULL;

std::uint64_t
mix64(std::uint64_t v)
{
    return splitMix64(v); // splitMix64 advances its argument; copy.
}

} // namespace

const char *
routerPolicyName(RouterPolicy policy)
{
    switch (policy) {
      case RouterPolicy::Uniform:
        return "uniform";
      case RouterPolicy::Keyed:
        return "keyed";
      case RouterPolicy::HotSpot:
        return "hotspot";
    }
    return "?";
}

bool
validateFleetConfig(const FleetConfig &cfg, std::string &error)
{
    if (cfg.numNodes == 0)
        error = "nodes 0 must be at least 1";
    else if (const char *why = arrivalConfigError(cfg.arrival))
        error = why;
    else if (!(cfg.hotFraction >= 0.0 && cfg.hotFraction <= 1.0))
        error = "hot_fraction must be within [0, 1]";
    else if (const char *why = requestSizeError(cfg.node.requestSize))
        error = "size " + std::to_string(cfg.node.requestSize) + " " + why;
    else
        return true;
    return false;
}

unsigned
routeRequest(RouterPolicy policy, unsigned num_nodes,
             double hot_fraction, std::uint64_t key,
             std::uint64_t ordinal)
{
    if (num_nodes <= 1)
        return 0;
    switch (policy) {
      case RouterPolicy::Uniform:
        break;
      case RouterPolicy::Keyed:
        return static_cast<unsigned>(mix64(key ^ keyRouteSalt) %
                                     num_nodes);
      case RouterPolicy::HotSpot: {
        const double coin =
            static_cast<double>(mix64(ordinal ^ hotCoinSalt) >> 11) *
            0x1.0p-53;
        if (coin < hot_fraction)
            return 0;
        break;
      }
    }
    return static_cast<unsigned>(mix64(ordinal ^ uniformRouteSalt) %
                                 num_nodes);
}

std::vector<FleetRequest>
generateFleetRequests(const FleetConfig &cfg)
{
    const std::uint64_t streamSeed =
        deriveStreamSeed(cfg.seed, cfg.arrival);
    const std::unique_ptr<ArrivalModel> model =
        makeArrivalModel(cfg.arrival, streamSeed);
    // A separate generator for client keys, so key draws never
    // perturb the arrival-time stream (and vice versa).
    std::uint64_t keyState = streamSeed ^ 0x9e3779b97f4a7c15ULL;
    Xoshiro256StarStar keyRng(splitMix64(keyState));
    const std::uint64_t keys = cfg.numKeys ? cfg.numKeys : 1;

    std::vector<FleetRequest> out;
    out.reserve(cfg.requests);
    for (std::uint64_t i = 0; i < cfg.requests; ++i) {
        FleetRequest req;
        req.arrival = model->next();
        req.key = keyRng.nextBounded(keys);
        req.node = routeRequest(cfg.router, cfg.numNodes,
                                cfg.hotFraction, req.key, i);
        out.push_back(req);
    }
    return out;
}

std::uint64_t
fleetNodeSeed(const FleetConfig &cfg, unsigned node)
{
    // Content-addressed like runner/sweep.hh deriveSeed: campaign
    // seed x arrival identity x node index, never 0.
    std::uint64_t state = cfg.seed ^ arrivalConfigDigest(cfg.arrival) ^
                          ((static_cast<std::uint64_t>(node) + 1) *
                           0xd1b54a32d192ed03ULL);
    const std::uint64_t derived = splitMix64(state);
    return derived ? derived : 1;
}

FleetResult
runFleet(const FleetConfig &cfg)
{
    if (std::string error; !validateFleetConfig(cfg, error))
        fatal("fleet: %s", error.c_str());

    // Shard the stream. Arrival order is preserved within each node's
    // vector because the global stream is generated in arrival order.
    const std::vector<FleetRequest> stream =
        generateFleetRequests(cfg);
    std::vector<std::vector<Tick>> perNode(cfg.numNodes);
    for (const FleetRequest &req : stream)
        perNode[req.node].push_back(req.arrival);

    // One simulator per thread, results into pre-assigned slots
    // (the sweep runner's determinism construction).
    FleetResult res;
    res.nodes.resize(cfg.numNodes);
    ThreadPool pool(cfg.jobs ? cfg.jobs
                             : ThreadPool::hardwareConcurrency());
    pool.parallelFor(cfg.numNodes, [&](std::size_t i) {
        ServiceNodeConfig nodeCfg = cfg.node;
        nodeCfg.seed = fleetNodeSeed(cfg, static_cast<unsigned>(i));
        res.nodes[i] = runServiceNode(nodeCfg, perNode[i]).stats;
    });

    // Canonical merge order; the result is order-independent anyway
    // (service_stats.hh), belt and braces.
    for (const ServiceStats &node : res.nodes)
        res.aggregate.merge(node);
    return res;
}

} // namespace hmcsim
