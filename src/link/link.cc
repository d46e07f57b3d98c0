// lint:file(hot-path) -- event-core file: allocation-free callables (no std::function) and HMCSIM_DCHECK-only invariants, enforced by hmcsim-lint.
#include "link/link.hh"

#include <algorithm>
#include <cmath>
#include <limits>

#include "sim/logging.hh"

namespace hmcsim
{

ThroughputRegulator::ThroughputRegulator(double bytes_per_second)
    : psPerByte(1e12 / bytes_per_second)
{
    if (!validRate(bytes_per_second))
        fatal("ThroughputRegulator rate must be positive");
}

Tick
ThroughputRegulator::admit(Tick ready, double bytes)
{
    const double start = std::max(static_cast<double>(ready), busyUntil);
    const double service = bytes * psPerByte;
    busyUntil = start + service;
    _busyTime += service;
    return static_cast<Tick>(busyUntil);
}

void
ThroughputRegulator::reset()
{
    busyUntil = 0.0;
    _busyTime = 0.0;
}

LinkDirection::LinkDirection(const LinkConfig &cfg, Tick propagation_delay,
                             std::uint64_t seed)
    : cfg(cfg),
      wire(cfg.effectiveLinkBytesPerSecond()),
      propagation(propagation_delay),
      overhead(cfg.perPacketOverheadBytes),
      rng(seed)
{
}

double
LinkDirection::errorProbability(Bytes packet_bytes)
{
    if (packet_bytes >= errorProbBySize.size())
        errorProbBySize.resize(packet_bytes + 1,
                               std::numeric_limits<double>::quiet_NaN());
    double &slot = errorProbBySize[packet_bytes];
    if (std::isnan(slot)) {
        // Probability any of the packet's bits flips. Computed with
        // exactly the expression the per-packet path used, so cached
        // and uncached values are bit-identical.
        const double bits =
            static_cast<double>(wireBytes(packet_bytes)) * 8.0;
        slot = 1.0 - std::pow(1.0 - cfg.bitErrorRate, bits);
    }
    return slot;
}

bool
LinkDirection::corrupted(Bytes packet_bytes)
{
    // Error-free links skip the cache and the RNG entirely, exactly
    // like the pre-cache fast path.
    if (cfg.bitErrorRate <= 0.0)
        return false;
    return rng.nextDouble() < errorProbability(packet_bytes);
}

Tick
LinkDirection::transmit(Tick ready, Bytes packet_bytes)
{
    const double bytes = static_cast<double>(wireBytes(packet_bytes));
    Tick done = wire.admit(ready, bytes);
    bool retried = false;
    // Link-level retry: a CRC failure at the receiver triggers a
    // resend from the retry buffer. Bounded only by the (vanishing)
    // probability of repeated corruption.
    while (corrupted(packet_bytes)) {
        retried = true;
        done = wire.admit(done + cfg.retryTurnaround, bytes);
    }
    if (retried)
        ++numRetries;
    return done + propagation;
}

void
LinkDirection::reset()
{
    wire.reset();
    numRetries = 0;
}

} // namespace hmcsim
