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
#include "sim/wiring.hh"

namespace hmcsim
{

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
class HmcController // lint:snapshot-state
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

    /** Size the packet pool for @p requests in flight at once (the
     *  ports' tag pools and write FIFOs bound them). */
    void reserveInFlight(std::size_t requests) { pool.reserve(requests); }

    /** The controller's in-flight packet pool (one per simulator;
     *  exposed for the perf harness's allocation accounting). */
    const PacketPool &packetPool() const { return pool; }

    // Main-path events: receiver events (sim/event.hh) that name the
    // controller by its queue index and the packet by its pool slot,
    // so a copy of the queue fires them on the copy's own controller.

    /** TX wire arrival: the cube decodes and services the request. */
    struct CubeArriveEvent
    {
        using Receiver = HmcController;
        ReceiverId receiver;
        std::uint32_t pkt;
        void operator()(HmcController &c) const;
    };

    /** Response leaves the cube onto the RX wire. */
    struct ResponseReadyEvent
    {
        using Receiver = HmcController;
        ReceiverId receiver;
        std::uint32_t pkt;
        unsigned rxLink;
        void operator()(HmcController &c) const;
    };

    /** Response fully reassembled at the FPGA: tokens return, parked
     *  requests release, the port gets its completion. */
    struct DeliveredEvent
    {
        using Receiver = HmcController;
        ReceiverId receiver;
        std::uint32_t pkt;
        void operator()(HmcController &c) const;
    };

    /** Take @p other's state (Ac510Module::fork): @p other is built
     *  from the same calibration; this controller's wiring stays. */
    HmcController &operator=(const HmcController &other) = default;

  private:
    /**
     * Start the TX pipeline for a pooled request (tokens already
     * held). The slot stays live -- threaded through the event
     * captures of the TX wire, the cube visit, and the RX path --
     * until the response is delivered, when it returns to the pool.
     */
    void startTransmit(std::uint32_t pkt);

    ControllerCalibration cal;
    /** Hoisted per-packet pipeline constants: the calibration's fixed
     *  TX/RX latencies are cycle-count x cycle-time products that the
     *  hot handlers would otherwise recompute per packet. */
    Tick txFixedLat = 0;
    Tick rxFixedLat = 0;
    Tick rxPerFlitTicks = 0;
    Wiring<EventQueue *> queue;
    Wiring<HmcDevice *> device;
    Wiring<DeliverFn> deliver;
    ReceiverId receiverId;
    /** Pool backing every in-flight request (docs/performance.md). */
    PacketPool pool;
    std::vector<LinkDirection> txLinks;
    std::vector<LinkDirection> rxLinks;
    /** Per-link cube input-buffer tokens (engaged when configured). */
    std::vector<TokenFlowControl> tokens;
    /** Requests parked by the stop signal, per link (pooled slots,
     *  still owned by this controller). */
    std::vector<std::deque<std::uint32_t>> parked;
    /** Independent count of flits holding tokens, per link (audited
     *  against `tokens` by the conservation checker). */
    std::vector<std::uint64_t> inFlightFlits;
    ControllerStats _stats;
};

} // namespace hmcsim

#endif // HMCSIM_HOST_HMC_CONTROLLER_HH
