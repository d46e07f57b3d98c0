/**
 * @file
 * One GUPS port (Fig. 4b): address generator, read tag pool, write
 * request FIFO credits, arbitration between pending request kinds,
 * and the monitoring unit that measures read latencies.
 *
 * The FPGA runs GUPS at 187.5 MHz and instantiates nine ports to
 * saturate the HMC links; each port can issue at most one request per
 * cycle and at most 64 outstanding reads (the tag pool). Those two
 * structural limits, not the model's plumbing, bound the offered load
 * exactly as in the hardware.
 */

#ifndef HMCSIM_GUPS_GUPS_PORT_HH
#define HMCSIM_GUPS_GUPS_PORT_HH

#include <cstdint>
#include <deque>
#include <functional>
#include <vector>

#include "gups/address_generator.hh"
#include "gups/arrival_feed.hh"
#include "protocol/packet.hh"
#include "protocol/tag_pool.hh"
#include "sim/event_queue.hh"
#include "sim/stat_registry.hh"
#include "sim/stats.hh"
#include "sim/types.hh"
#include "sim/wiring.hh"

namespace hmcsim
{

class PacketTracer;

/** GUPS ports instantiated on the FPGA (one of ten is reserved). */
constexpr unsigned gupsPortCount = 9;

/** Configuration of one port. */
struct GupsPortConfig
{
    RequestMix mix = RequestMix::ReadOnly;
    Bytes requestSize = 128;
    AddressingMode mode = AddressingMode::Random;
    Addr mask = 0;
    Addr antiMask = 0;
    /** Outstanding-read limit ("Rd. Tag Pool", depth 64). */
    unsigned tagPoolDepth = 64;
    /** Outstanding-write limit ("Wr. Req. FIFO"). */
    unsigned writeCreditDepth = 64;
    /** Minimum spacing between issues: one 187.5 MHz cycle. */
    Tick issueInterval = 5333;
    /**
     * Stop after this many generated operations (reads; in rw mode
     * each read also produces one write). 0 = unbounded. Stream GUPS
     * uses this to send fixed-size request groups.
     */
    std::uint64_t requestBudget = 0;
    /**
     * Stagger each port's linear stream into a distinct region (the
     * default: nine independent array slices). Disable to model all
     * ports walking one shared array front-to-back.
     */
    bool staggerLinearStarts = true;
    /** External links the port's requests are distributed over. */
    unsigned numLinks = 2;
    /**
     * Lifecycle tracer fed every completed packet (trace/lifecycle.hh).
     * Null (the default) is the zero-cost fast path: the only per-
     * response overhead is this untaken branch. Not owned; shared by
     * all ports of one system (Ac510Config::tracer wires it).
     */
    PacketTracer *tracer = nullptr;
    /**
     * Open-loop arrival feed (gups/arrival_feed.hh). Null (the
     * default) is classic closed-loop GUPS: issue whenever a tag or
     * credit frees up. Non-null switches the port to arrival-driven
     * issue: one tagged read per feed entry, admitted no earlier than
     * its arrival tick, with sojourn (arrival -> completion) reported
     * back through the feed. Open-loop traffic is reads regardless of
     * mix (the fleet service models read-dominated lookups); the
     * issue-interval and tag-pool structural limits still apply, so
     * bursts queue exactly as the hardware would make them. Not
     * owned; must be unique to this port and outlive it.
     */
    ArrivalFeed *arrivals = nullptr;
};

/** Counters exposed by a port's monitoring unit. */
struct GupsPortStats
{
    std::uint64_t readsIssued = 0;
    std::uint64_t writesIssued = 0;
    std::uint64_t readsCompleted = 0;
    std::uint64_t writesCompleted = 0;
    /** Raw link bytes of completed transactions (req+resp packets). */
    Bytes rawBytes = 0;
    Bytes readPayloadBytes = 0;
    Bytes writePayloadBytes = 0;
    /** Read round-trip latencies in nanoseconds. */
    SampleStats readLatencyNs;
    /** Write round-trip latencies in nanoseconds. */
    SampleStats writeLatencyNs;
    /** Read-latency distribution for percentile reporting
     *  (100 ns bins up to 100 us; beyond lands in overflow). */
    Histogram readLatencyHistNs{0.0, 100000.0, 1000};
    /** Responses carrying the thermal-failure flag. */
    std::uint64_t thermalFailures = 0;
};

/** A single traffic-generator port. */
class GupsPort // lint:snapshot-state
{
  public:
    /** Sink a port submits requests into (the HMC controller). */
    using SubmitFn = std::function<void(Packet &&)>;

    /**
     * @param id Port index (0..8 on the AC-510).
     * @param cfg Port configuration.
     * @param capacity Cube capacity for address generation.
     * @param queue Shared event queue.
     * @param submit Request sink.
     * @param seed Experiment seed (port id is mixed in).
     */
    GupsPort(unsigned id, const GupsPortConfig &cfg, Bytes capacity,
             EventQueue &queue, SubmitFn submit, std::uint64_t seed);

    /** Begin issuing requests. */
    void start();

    /** Stop issuing new requests (outstanding ones still drain). */
    void stop();

    /** Deliver a response to this port. */
    void onResponse(const Packet &pkt);

    /** True when no requests are outstanding. */
    bool
    idle() const
    {
        return outstandingReads == 0 && outstandingWrites == 0 &&
               pendingRmwWrites.empty();
    }

    /** True when the request budget (if any) has been exhausted. */
    bool
    budgetExhausted() const
    {
        return cfg.requestBudget != 0 &&
               generatedOps >= cfg.requestBudget;
    }

    /** This port's monitoring counters. */
    const GupsPortStats &stats() const { return _stats; }

    /** Register this port's monitoring counters under @p path. */
    void registerStats(StatRegistry &registry, const StatPath &path) const;

    /**
     * Register this port's model invariants (tag-pool accounting,
     * write-credit conservation) under @p name. The port must outlive
     * the registry.
     */
    void registerCheckers(CheckerRegistry &registry,
                          const std::string &name) const;
    /** Clear monitoring counters (e.g. after warm-up). */
    void resetStats() { _stats = GupsPortStats{}; }

    unsigned id() const { return portId; }
    unsigned outstanding() const
    {
        return outstandingReads + outstandingWrites;
    }
    const GupsPortConfig &config() const { return cfg; }

    /** The port's one self-scheduled event: a receiver event
     *  (sim/event.hh), so a copy of the queue fires it on the copy's
     *  own port. */
    struct IssueEvent
    {
        using Receiver = GupsPort;
        ReceiverId receiver;
        void operator()(GupsPort &port) const { port.issueOne(); }
    };

    /** Take @p other's state (Ac510Module::fork): @p other is built
     *  from the same configuration; this port's wiring stays. */
    GupsPort &operator=(const GupsPort &other) = default;

  private:
    /** Issue-window depth: addresses pre-generated per refill so the
     *  generator's mask/bound work amortizes across a burst. */
    static constexpr unsigned addrWindowSize = 32;

    /** Arrange for issueOne() to run at the next allowed issue slot. */
    void scheduleIssue();

    /** Like scheduleIssue(), but no earlier than @p earliest (used to
     *  sleep until the next open-loop arrival). */
    void scheduleIssueAt(Tick earliest);

    /** Try to issue a single request; reschedules itself while the
     *  port is running and has work. */
    void issueOne();

    /** Pop the next generated address, refilling the window when it
     *  runs dry (RNG consumed in the same order as per-call next()). */
    Addr
    nextAddress()
    {
        if (addrWindowPos == addrWindowSize) {
            addrGen.fill(addrWindow, addrWindowSize);
            addrWindowPos = 0;
        }
        return addrWindow[addrWindowPos++];
    }

    Packet makePacket(Command cmd, Addr addr);

    unsigned portId;
    GupsPortConfig cfg;
    Wiring<EventQueue *> queue;
    Wiring<SubmitFn> submit;
    ReceiverId receiverId;
    AddressGenerator addrGen;
    TagPool tags;
    unsigned writeCredits;
    unsigned outstandingReads = 0;
    unsigned outstandingWrites = 0;
    /** Writes waiting to be issued after their read returned (rw). */
    std::deque<Addr> pendingRmwWrites;
    bool running = false;
    bool issuePending = false;
    Tick nextIssueAllowed = 0;
    std::uint64_t generatedOps = 0;
    std::uint64_t nextPacketId;

    // Hoisted per-packet constants (constructor): link selection and
    // the per-completion byte costs, which are fixed by the port's
    // mix and request size, so the response path adds a constant
    // instead of recomputing per packet.
    std::uint8_t linkId = 0;
    Bytes readTransactionBytes = 0;
    Bytes readPayload = 0;
    Bytes writeTransactionBytes = 0;
    Bytes writePayload = 0;

    /** Pre-generated issue addresses (nextAddress). */
    Addr addrWindow[addrWindowSize];
    unsigned addrWindowPos = addrWindowSize;

    /** Open-loop only: arrival tick of each in-flight tagged request,
     *  indexed by tag, so completions can report sojourn (arrival ->
     *  completion) back through the feed. Empty in closed-loop mode. */
    std::vector<Tick> arrivalByTag;

    GupsPortStats _stats;
};

} // namespace hmcsim

#endif // HMCSIM_GUPS_GUPS_PORT_HH
