/**
 * @file
 * External SerDes link model (HMC 1.1, Sec. II-B of the paper).
 *
 * Each external link is a bundle of 8 (half-width) or 16 (full-width)
 * full-duplex lanes at 10/12.5/15 Gbps per lane. The AC-510 uses two
 * half-width links at 15 Gbps, giving the Eq. 2 peak of 60 GB/s
 * bidirectional (30 GB/s per direction).
 *
 * A direction of a link is modeled as a serial resource: packets
 * occupy the wire for bytes/rate seconds in arrival order. Protocol
 * efficiency (scrambling, lane training gaps, retry-buffer headroom)
 * and a fixed per-packet link-layer overhead derate the raw lane rate;
 * both are calibration constants surfaced in LinkConfig.
 */

#ifndef HMCSIM_LINK_LINK_HH
#define HMCSIM_LINK_LINK_HH

#include <cstdint>
#include <vector>

#include "sim/random.hh"
#include "sim/types.hh"

namespace hmcsim
{

/** Static description of one external link bundle. */
struct LinkConfig
{
    /** Number of external links on the device (2 or 4 for HMC 1.x). */
    unsigned numLinks = 2;
    /** Lanes per link: 8 = half width, 16 = full width. */
    unsigned lanesPerLink = 8;
    /** Per-lane signaling rate in Gbps: 10, 12.5 or 15. */
    double gbpsPerLane = 15.0;
    /**
     * Fraction of the raw lane rate available to packet bytes after
     * protocol framing/scrambling. 1.0 = ideal.
     */
    double protocolEfficiency = 1.0;
    /**
     * Extra link-layer bytes charged per packet (lane-crossing
     * alignment, retry pointer bookkeeping). Zero = ideal.
     */
    Bytes perPacketOverheadBytes = 0;
    /**
     * Bit error rate of the lanes. A corrupted packet fails its CRC
     * at the receiver and is resent from the retry buffer (HMC's
     * link-level retry protocol); each retry re-occupies the wire and
     * pays @ref retryTurnaround. Zero = error-free (default).
     */
    double bitErrorRate = 0.0;
    /** Retry-buffer turnaround: error detection, retry pointer
     *  exchange, and re-serialization setup. */
    Tick retryTurnaround = nsToTicks(100.0);

    /** Raw one-direction bandwidth of a single link in bytes/s. */
    double
    rawLinkBytesPerSecond() const
    {
        return lanesPerLink * gbpsPerLane * 1e9 / 8.0;
    }

    /**
     * Peak bidirectional bandwidth across all links in bytes/s
     * (Eq. 2: 2 links x 8 lanes x 15 Gbps x 2 = 60 GB/s).
     */
    double
    peakBidirectionalBytesPerSecond() const
    {
        return numLinks * rawLinkBytesPerSecond() * 2.0;
    }

    /** Effective one-direction rate of a single link in bytes/s. */
    double
    effectiveLinkBytesPerSecond() const
    {
        return rawLinkBytesPerSecond() * protocolEfficiency;
    }
};

/** Whether a ThroughputRegulator can serve at @p bytes_per_second:
 *  positive, so zero, negative and NaN rates are not. */
inline bool
validRate(double bytes_per_second)
{
    return bytes_per_second > 0.0;
}

/**
 * A serial resource with a fixed service rate in bytes/second.
 *
 * admit() computes when a load of a given size finishes transmission
 * if it arrives at a given time, and advances the busy horizon. This
 * models any bandwidth-limited pipe: a link direction, the FPGA
 * controller's flit datapath, or a vault's TSV data bus.
 */
class ThroughputRegulator
{
  public:
    /** @param bytes_per_second Service rate; must be validRate(). */
    explicit ThroughputRegulator(double bytes_per_second);

    /**
     * Occupy the resource with @p bytes arriving at @p ready.
     * @return Tick at which the last byte has been transmitted.
     */
    Tick admit(Tick ready, double bytes);

    /**
     * When the resource next becomes free (lower bound; later admits
     * can only push it further out).
     */
    Tick horizon() const { return static_cast<Tick>(busyUntil); }

    /** Time the resource has spent busy, for utilization stats. */
    Tick busyTime() const { return static_cast<Tick>(_busyTime); }

    /** Service rate in bytes per second. */
    double rate() const { return 1e12 / psPerByte; }

    /** Forget all history. */
    void reset();

  private:
    double psPerByte;
    double busyUntil = 0.0;
    double _busyTime = 0.0;
};

/**
 * One direction of one external link: serialization latency plus the
 * shared-wire occupancy.
 */
class LinkDirection
{
  public:
    /**
     * @param cfg Link bundle configuration.
     * @param propagation_delay Fixed wire/SerDes flight time added to
     *        every packet (board trace + clock-domain crossings).
     * @param seed Seed for the error-injection stream (only used when
     *        cfg.bitErrorRate > 0).
     */
    LinkDirection(const LinkConfig &cfg, Tick propagation_delay,
                  std::uint64_t seed = 0x5EED);

    /**
     * Transmit a packet of @p packet_bytes arriving at @p ready.
     * Corrupted transmissions (per the configured bit error rate) are
     * resent from the retry buffer until one passes CRC.
     * @return Tick at which the packet is fully received at the far
     *         end (serialization + retries + propagation).
     */
    Tick transmit(Tick ready, Bytes packet_bytes);

    /** Bytes actually charged to the wire for a packet. */
    Bytes
    wireBytes(Bytes packet_bytes) const
    {
        return packet_bytes + overhead;
    }

    /** Packets that needed at least one retry. */
    std::uint64_t retries() const { return numRetries; }

    Tick busyTime() const { return wire.busyTime(); }
    void reset();

  private:
    /** True when this transmission attempt is corrupted. */
    bool corrupted(Bytes packet_bytes);

    /** Corruption probability of a @p packet_bytes packet, computed
     *  once per distinct size and cached (it depends only on the bit
     *  count and the configured BER). */
    double errorProbability(Bytes packet_bytes);

    LinkConfig cfg;
    ThroughputRegulator wire;
    Tick propagation;
    Bytes overhead;
    Xoshiro256StarStar rng;
    std::uint64_t numRetries = 0;
    /** p_err cache indexed by packet size; NaN = not yet computed.
     *  Packets are at most 17 flits (~272 B), so the vector stays
     *  tiny and is only populated when bitErrorRate > 0. */
    std::vector<double> errorProbBySize;
};

} // namespace hmcsim

#endif // HMCSIM_LINK_LINK_HH
