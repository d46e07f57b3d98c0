/**
 * @file
 * Fleet layer (docs/service.md): N simulated HMC nodes serving one
 * open-loop request stream, sharded by a request router.
 *
 * The stream is generated once, in arrival order, from a
 * content-addressed seed (arrival.hh); routing assigns each request a
 * node as a pure function of (policy, key, ordinal), so shard
 * membership never depends on execution order. Nodes then simulate
 * independently on the runner's ThreadPool -- one simulator per
 * thread, results written into pre-assigned slots, stats merged in
 * canonical node order -- which makes every output byte-identical at
 * any --jobs, the same construction as runner/sweep.hh.
 */

#ifndef HMCSIM_SERVICE_FLEET_HH
#define HMCSIM_SERVICE_FLEET_HH

#include <cstdint>
#include <string>
#include <vector>

#include "service/arrival.hh"
#include "service/node.hh"
#include "service/service_stats.hh"

namespace hmcsim
{

/** How requests are sharded across nodes. */
enum class RouterPolicy
{
    /** Spread independent of key (hash of the request ordinal). */
    Uniform,
    /** hash(key) % nodes: every request for a key lands on one node,
     *  stable under fleet-size-preserving changes (shard affinity). */
    Keyed,
    /** A configured fraction pins to node 0; the rest spread
     *  uniformly. Models a skewed tenant. */
    HotSpot,
};

const char *routerPolicyName(RouterPolicy policy);

/** Fleet configuration. */
struct FleetConfig
{
    unsigned numNodes = 4;
    /** Open-loop requests generated for the whole fleet. */
    std::uint64_t requests = 100000;
    ArrivalConfig arrival;
    RouterPolicy router = RouterPolicy::Uniform;
    /** HotSpot: share of requests pinned to node 0. */
    double hotFraction = 0.25;
    /** Client-key population for keyed/hot-spot routing. */
    std::uint64_t numKeys = 1024;
    /** Campaign seed; per-stream and per-node seeds derive from it
     *  content-addressed. */
    std::uint64_t seed = 1;
    /** Concurrent node simulations; 0 = hardware concurrency. */
    unsigned jobs = 0;
    /** Per-node hardware/pattern/size (its seed field is ignored;
     *  runFleet derives one per node). */
    ServiceNodeConfig node;
};

/**
 * Check @p cfg before any node is built: at least one node, a usable
 * arrival stream (arrivalConfigError), a hot fraction in [0, 1] and a
 * legal per-node request size. False with a one-line @p error naming
 * the offending serve `traffic` key.
 */
bool validateFleetConfig(const FleetConfig &cfg, std::string &error);

/** One generated request, already routed. */
struct FleetRequest
{
    Tick arrival = 0;
    std::uint64_t key = 0;
    unsigned node = 0;
};

/**
 * Route one request. Pure function of its arguments -- no RNG state
 * -- so a key's shard can be computed anywhere (the shard-stability
 * property tests/test_service.cc pins).
 */
unsigned routeRequest(RouterPolicy policy, unsigned num_nodes,
                      double hot_fraction, std::uint64_t key,
                      std::uint64_t ordinal);

/** Generate and route the full request stream, in arrival order. */
std::vector<FleetRequest> generateFleetRequests(const FleetConfig &cfg);

/** Content-addressed per-node seed (never 0). */
std::uint64_t fleetNodeSeed(const FleetConfig &cfg, unsigned node);

/** Outcome of one fleet run. */
struct FleetResult
{
    /** Per-node stats, indexed by node id. */
    std::vector<ServiceStats> nodes;
    /** Merge of every node in canonical order. */
    ServiceStats aggregate;
};

/** Serve the configured stream across the fleet. */
FleetResult runFleet(const FleetConfig &cfg);

} // namespace hmcsim

#endif // HMCSIM_SERVICE_FLEET_HH
