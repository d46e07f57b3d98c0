#include "analysis/closed_loop.hh"

#include <algorithm>
#include <functional>
#include <queue>
#include <vector>

#include "sim/random.hh"

namespace hmcsim
{

VaultConfig
ddr4DimmVault()
{
    VaultConfig vault;
    vault.numBanks = 16;
    vault.controllerLatency = nsToTicks(20.0);
    vault.commandBeats = 0;
    vault.backend.kind = BackendKind::Ddr4;
    return vault;
}

ClosedLoopResult
measureClosedLoop(const VaultConfig &vault, bool linear,
                  Bytes request_size, unsigned outstanding,
                  unsigned num_requests)
{
    constexpr Bytes span = 4 * gib;
    VaultController controller(vault);
    Xoshiro256StarStar rng(1);

    std::priority_queue<Tick, std::vector<Tick>, std::greater<Tick>>
        in_flight;
    Packet pkt{};
    pkt.cmd = Command::Read;
    pkt.payload = request_size;
    Addr cursor = 0;
    double total_latency_ns = 0.0;
    Tick last_done = 0;

    for (unsigned i = 0; i < num_requests; ++i) {
        Tick issue = 0;
        if (in_flight.size() >= outstanding) {
            issue = in_flight.top();
            in_flight.pop();
        }
        if (linear) {
            pkt.addr = cursor;
            cursor = (cursor + request_size) % span;
        } else {
            pkt.addr = rng.nextBounded(span / request_size) * request_size;
        }
        const Tick done = controller.service(pkt, issue);
        in_flight.push(done);
        total_latency_ns += ticksToNs(done - issue);
        last_done = std::max(last_done, done);
    }

    ClosedLoopResult r;
    r.gbps = toGBps(bytesPerSecond(
        static_cast<Bytes>(num_requests) * request_size, last_done));
    r.avgLatencyNs = total_latency_ns / num_requests;
    r.rowHitRate = static_cast<double>(controller.stats().rowHits) /
                   static_cast<double>(num_requests);
    return r;
}

} // namespace hmcsim
