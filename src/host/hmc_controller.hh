/**
 * @file
 * FPGA-side HMC controller: the TX and RX paths of Fig. 14.
 *
 * The controller accepts requests from GUPS ports, runs them through
 * the fixed TX pipeline (flit conversion, arbitration, sequence
 * numbers, flow control, CRC, SerDes conversion), serializes them on
 * the per-link TX wire, hands them to the cube, and symmetrically
 * returns responses through the RX path.
 */

#ifndef HMCSIM_HOST_HMC_CONTROLLER_HH
#define HMCSIM_HOST_HMC_CONTROLLER_HH

#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "hmc/device.hh"
#include "link/flow_control.hh"
#include "host/calibration.hh"
#include "link/link.hh"
#include "protocol/packet.hh"
#include "protocol/packet_pool.hh"
#include "sim/event_queue.hh"
#include "sim/stat_registry.hh"
#include "sim/types.hh"

namespace hmcsim
{

class SnapshotFixup;

/** One named stage of the TX/RX latency deconstruction (Fig. 14). */
struct StageLatency
{
    std::string name;
    unsigned cycles; ///< FPGA cycles (0 when not cycle-quantized).
    double ns;       ///< Latency contribution in nanoseconds.
};

/** Controller statistics. */
struct ControllerStats
{
    std::uint64_t requestsSubmitted = 0;
    std::uint64_t responsesDelivered = 0;
    Bytes txWireBytes = 0;
    Bytes rxWireBytes = 0;
    /** Requests parked by the flow-control stop signal. */
    std::uint64_t flowControlStalls = 0;
};

/**
 * Why no controller can be built from @p cal: no link, more links than
 * the 8-bit packet link field addresses, an FPGA cycle of 2^32 ps or
 * more (the fixed pipeline latencies multiply it by 32-bit cycle
 * counts), a TX pipeline cycle count of 2^30 or more (the TX latency
 * multiplies the cycle by the sum of four), or a TX/RX link rate that
 * is not validRate(). Names the field by its wire key; null when it
 * can.
 * HmcController fatal()s on it and validateExperimentConfig() refuses
 * it.
 */
const char *calibrationError(const ControllerCalibration &cal);

/** The controller. */
class HmcController
{
  public:
    /** Response sink: routes a completed packet to its port. */
    using DeliverFn = std::function<void(const Packet &)>;

    HmcController(const ControllerCalibration &cal, EventQueue &queue,
                  HmcDevice &device, DeliverFn deliver);

    /** Submit a request from a GUPS port (starts the TX pipeline). */
    void submitRequest(Packet &&pkt);

    /**
     * Per-stage latency breakdown of the TX path for a request of
     * @p request_bytes (Fig. 14 reproduction; serialization uses the
     * effective link rate).
     */
    std::vector<StageLatency> txStageBreakdown(Bytes request_bytes) const;

    /** Per-stage latency breakdown of the RX path for a response. */
    std::vector<StageLatency> rxStageBreakdown(Bytes response_bytes) const;

    /** Minimum infrastructure round-trip contribution for a
     *  transaction (TX + RX, no queuing): the paper's ~547 ns. */
    double infrastructureLatencyNs(Bytes request_bytes,
                                   Bytes response_bytes) const;

    const ControllerStats &stats() const { return _stats; }
    const ControllerCalibration &calibration() const { return cal; }

    /** Total packets that needed a link-level retry (both paths). */
    std::uint64_t linkRetries() const;

    /** Register controller counters under @p path. */
    void registerStats(StatRegistry &registry, const StatPath &path) const;

    /**
     * Register the controller's model invariants under @p name:
     * per-link flow-control token conservation (available + in-flight
     * == capacity) and stop-signal consistency (a parked request
     * implies insufficient tokens for it). The controller must
     * outlive the registry.
     */
    void registerCheckers(CheckerRegistry &registry,
                          const std::string &name) const;

    /** The controller's in-flight packet pool (one per simulator;
     *  exposed for the perf harness's allocation accounting). */
    const PacketPool &packetPool() const { return pool; }

    // Main-path event captures, named (instead of inline lambdas) so
    // simulator fork can recognize pending events by invoke thunk and
    // relocate their pointers into the forked world (sim/snapshot.hh).
    // All trivially copyable; each pointer is rewritten by relocate().

    /** TX wire arrival: the cube decodes and services the request. */
    struct CubeArriveEvent // lint:snapshot-state
    {
        HmcController *self; // lint:allow(snapshot-safe, relocated through the fork fixup map)
        Packet *pkt;         // lint:allow(snapshot-safe, pooled slot translated block-relative)
        void operator()();
        void relocate(const SnapshotFixup &fixup);
    };

    /** Response leaves the cube onto the RX wire. */
    struct ResponseReadyEvent // lint:snapshot-state
    {
        HmcController *self; // lint:allow(snapshot-safe, relocated through the fork fixup map)
        Packet *pkt;         // lint:allow(snapshot-safe, pooled slot translated block-relative)
        unsigned rxLink;
        void operator()();
        void relocate(const SnapshotFixup &fixup);
    };

    /** Response fully reassembled at the FPGA: tokens return, parked
     *  requests release, the port gets its completion. */
    struct DeliveredEvent // lint:snapshot-state
    {
        HmcController *self; // lint:allow(snapshot-safe, relocated through the fork fixup map)
        Packet *pkt;         // lint:allow(snapshot-safe, pooled slot translated block-relative)
        void operator()();
        void relocate(const SnapshotFixup &fixup);
    };

    /**
     * Become a state copy of @p src for simulator fork: clone the
     * packet pool (registering its block extents in @p fixup so event
     * captures can be translated), then copy link serializers, RNG
     * streams, token counts, parked queues, and counters. Must run on
     * a freshly built controller with identical calibration; read-only
     * on @p src (concurrent forks of one warm source are safe).
     */
    void restoreFrom(const HmcController &src, SnapshotFixup &fixup);

  private:
    /**
     * Start the TX pipeline for a pooled request (tokens already
     * held). The pointer stays live -- threaded through the event
     * captures of the TX wire, the cube visit, and the RX path --
     * until the response is delivered, when the slot returns to the
     * pool.
     */
    void startTransmit(Packet *pkt);

    ControllerCalibration cal;
    /** Hoisted per-packet pipeline constants: the calibration's fixed
     *  TX/RX latencies are cycle-count x cycle-time products that the
     *  hot handlers would otherwise recompute per packet. */
    Tick txFixedLat = 0;
    Tick rxFixedLat = 0;
    Tick rxPerFlitTicks = 0;
    EventQueue &queue;
    HmcDevice &device;
    DeliverFn deliver;
    /** Pool backing every in-flight request (docs/performance.md). */
    PacketPool pool;
    std::vector<std::unique_ptr<LinkDirection>> txLinks;
    std::vector<std::unique_ptr<LinkDirection>> rxLinks;
    /** Per-link cube input-buffer tokens (engaged when configured). */
    std::vector<TokenFlowControl> tokens;
    /** Requests parked by the stop signal, per link (pooled slots,
     *  still owned by this controller). */
    std::vector<std::deque<Packet *>> parked;
    /** Independent count of flits holding tokens, per link (audited
     *  against `tokens` by the conservation checker). */
    std::vector<std::uint64_t> inFlightFlits;
    ControllerStats _stats;
};

} // namespace hmcsim

#endif // HMCSIM_HOST_HMC_CONTROLLER_HH
