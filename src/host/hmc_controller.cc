// lint:file(hot-path) -- event-core file: allocation-free callables (no std::function) and HMCSIM_DCHECK-only invariants, enforced by hmcsim-lint.
#include "host/hmc_controller.hh"

#include <memory>
#include <sstream>
#include <utility>

#include "protocol/fields.hh"
#include "sim/check.hh"
#include "sim/logging.hh"

namespace hmcsim
{

const char *
calibrationError(const ControllerCalibration &cal)
{
    if (cal.numLinks == 0 || cal.numLinks > 256)
        return "controller.numLinks must be from 1 to 256";
    // The fixed pipeline latencies multiply it by 32-bit cycle counts.
    if (cal.fpgaCyclePs >= (Tick{1} << 32))
        return "controller.fpgaCyclePs must be below 2^32 ps";
    // The TX latency multiplies it by the sum of four cycle counts:
    // each below 2^30 keeps that product below 2^64.
    for (const auto &[cycles, why] : {
             std::pair{cal.flitsToParallelCycles,
                       "controller.flitsToParallelCycles must be below "
                       "2^30"},
             std::pair{cal.arbiterCycles,
                       "controller.arbiterCycles must be below 2^30"},
             std::pair{cal.seqFlowCrcCycles,
                       "controller.seqFlowCrcCycles must be below 2^30"},
             std::pair{cal.serdesConvertCycles,
                       "controller.serdesConvertCycles must be below "
                       "2^30"}})
        if (cycles >= (1u << 30))
            return why;
    if (!validRate(cal.txBytesPerSecondPerLink))
        return "controller.txBytesPerSecondPerLink must be positive";
    if (!validRate(cal.rxBytesPerSecondPerLink))
        return "controller.rxBytesPerSecondPerLink must be positive";
    return nullptr;
}

HmcController::HmcController(const ControllerCalibration &cal,
                             EventQueue &queue, HmcDevice &device,
                             DeliverFn deliver)
    : cal(cal),
      txFixedLat(cal.txFixedLatency()),
      rxFixedLat(cal.rxFixedLatency()),
      rxPerFlitTicks(cal.rxPerFlit),
      queue(&queue), device(&device), deliver(std::move(deliver)),
      receiverId(queue.addReceiver(this))
{
    if (const char *why = calibrationError(cal))
        fatal("%s", why);
    const LinkConfig tx_cfg = cal.txLinkConfig();
    const LinkConfig rx_cfg = cal.rxLinkConfig();
    for (unsigned i = 0; i < cal.numLinks; ++i) {
        txLinks.emplace_back(tx_cfg, cal.txPropagation, 0x70000 + i);
        rxLinks.emplace_back(rx_cfg, cal.rxPropagation, 0xB0000 + i);
        if (cal.inputBufferFlits > 0) {
            tokens.emplace_back(cal.inputBufferFlits);
            parked.emplace_back();
            inFlightFlits.push_back(0);
        }
    }
}

void
HmcController::submitRequest(Packet &&pkt)
{
    ++_stats.requestsSubmitted;
    // The request moves into a pooled slot here and stays in it for
    // its whole lifetime; event captures below carry only the slot
    // (the Event inline budget forbids by-value packets).
    const std::uint32_t slot = pool.acquire();
    Packet &req = pool[slot];
    req = pkt;
    const unsigned link = static_cast<unsigned>(req.link % txLinks.size());
    req.link = static_cast<std::uint8_t>(link);

    // The Add-Seq# / Add-CRC stages of Fig. 14: stamp the on-the-wire
    // header and the tail CRC the cube will verify.
    req.headerBits = encodeRequestHeader(makeRequestHeader(req));
    req.tailCrc = packetCrc(req, req.headerBits);

    // Request flow control (Fig. 14 stage 5): without cube buffer
    // tokens, the request waits in the controller; the stop signal is
    // implicit in the parked queue.
    if (!tokens.empty()) {
        if (!tokens[link].consume(req.reqFlits())) {
            ++_stats.flowControlStalls;
            parked[link].push_back(slot);
            return;
        }
        inFlightFlits[link] += req.reqFlits();
    }

    startTransmit(slot);
}

void
HmcController::startTransmit(std::uint32_t slot)
{
    Packet &pkt = pool[slot];
    const unsigned link = pkt.link;

    // Fixed TX pipeline, then serialization on the shared wire.
    const Tick tx_start = queue->now() + txFixedLat;
    pkt.tLinkTx = tx_start;
    _stats.txWireBytes += txLinks[link].wireBytes(pkt.reqBytes());
    const Tick arrive = txLinks[link].transmit(tx_start, pkt.reqBytes());

    queue->schedule(arrive, CubeArriveEvent{receiverId, slot});
}

void
HmcController::CubeArriveEvent::operator()(HmcController &c) const
{
    // The cube decodes, routes, and services the request; it tells
    // us when the response starts back on the RX wire.
    Packet &p = c.pool[pkt];
    const Tick resp_ready = c.device->handleRequest(p, c.queue->now());
    const unsigned rx_link =
        static_cast<unsigned>(p.link % c.rxLinks.size());
    c.queue->schedule(resp_ready,
                      ResponseReadyEvent{receiver, pkt, rx_link});
}

void
HmcController::ResponseReadyEvent::operator()(HmcController &c) const
{
    const Packet &p = c.pool[pkt];
    c._stats.rxWireBytes += c.rxLinks[rxLink].wireBytes(p.respBytes());
    const Tick at_fpga =
        c.rxLinks[rxLink].transmit(c.queue->now(), p.respBytes());
    const Tick delivered = at_fpga + c.rxFixedLat +
                           c.rxPerFlitTicks * p.respFlits();
    c.queue->schedule(delivered, DeliveredEvent{receiver, pkt});
}

void
HmcController::DeliveredEvent::operator()(HmcController &c) const
{
    Packet &p = c.pool[pkt];
    p.tResponse = c.queue->now();
    ++c._stats.responsesDelivered;

    // The response's RTC field returns the request's input-buffer
    // tokens; that may release parked requests (deassert the stop
    // signal).
    if (!c.tokens.empty()) {
        const unsigned rx = p.link;
        HMCSIM_DCHECK(c.inFlightFlits[rx] >= p.reqFlits(),
                      "returning more flits than in flight "
                      "on link %u", rx);
        c.inFlightFlits[rx] -= p.reqFlits();
        c.tokens[rx].returnTokens(p.reqFlits());
        while (!c.parked[rx].empty() &&
               c.tokens[rx].consume(
                   c.pool[c.parked[rx].front()].reqFlits())) {
            const std::uint32_t next = c.parked[rx].front();
            c.parked[rx].pop_front();
            c.inFlightFlits[rx] += c.pool[next].reqFlits();
            c.startTransmit(next);
        }
    }
    // Nothing below acquires from the pool, so `p` stays valid.
    c.deliver.get()(p);
    c.pool.release(pkt);
}

std::uint64_t
HmcController::linkRetries() const
{
    std::uint64_t total = 0;
    for (const auto &link : txLinks)
        total += link.retries();
    for (const auto &link : rxLinks)
        total += link.retries();
    return total;
}

void
HmcController::registerCheckers(CheckerRegistry &registry,
                                const std::string &name) const
{
    // Packet-pool conservation: every slot checked out corresponds to
    // one submitted-but-undelivered request (in flight or parked). A
    // drift is a leaked or double-released slot -- exactly the
    // lifetime bug class pools attract.
    registry.addLambda(name + ".packet_pool",
                       [this](Tick) -> std::string {
        const std::uint64_t outstanding =
            _stats.requestsSubmitted - _stats.responsesDelivered;
        if (pool.live() == outstanding)
            return {};
        std::ostringstream out;
        out << pool.live() << " pooled packets live but "
            << outstanding << " requests outstanding";
        return out.str();
    });
    for (std::size_t link = 0; link < tokens.size(); ++link) {
        const std::string base =
            name + ".link" + std::to_string(link);
        registry.add(std::make_unique<TokenConservationChecker>(
            base + ".tokens", tokens[link],
            [this, link] { return inFlightFlits[link]; }));
        // Stop-signal consistency: after an event drains, a parked
        // request means the head of the parked queue does not fit in
        // the remaining tokens (otherwise the release loop lost it).
        registry.addLambda(base + ".stop_signal",
                           [this, link](Tick) -> std::string {
            if (parked[link].empty() ||
                !tokens[link].canSend(pool[parked[link].front()].reqFlits()))
                return {};
            std::ostringstream out;
            out << parked[link].size()
                << " requests parked although " << tokens[link].tokens()
                << " tokens cover the head request's "
                << pool[parked[link].front()].reqFlits() << " flits";
            return out.str();
        });
    }
}

void
HmcController::registerStats(StatRegistry &registry,
                             const StatPath &path) const
{
    registry.addValue((path / "requests_submitted").str(),
                      "requests entering the TX pipeline",
                      &_stats.requestsSubmitted);
    registry.addValue((path / "responses_delivered").str(),
                      "responses handed back to ports",
                      &_stats.responsesDelivered);
    registry.addValue((path / "tx_wire_bytes").str(),
                      "bytes serialized toward the cube",
                      &_stats.txWireBytes);
    registry.addValue((path / "rx_wire_bytes").str(),
                      "bytes deserialized from the cube",
                      &_stats.rxWireBytes);
    registry.add((path / "link_retries").str(),
                 "packets needing link-level retry",
                 [this] { return static_cast<double>(linkRetries()); });
    registry.addValue((path / "flow_control_stalls").str(),
                      "requests parked by the stop signal",
                      &_stats.flowControlStalls);
}

std::vector<StageLatency>
HmcController::txStageBreakdown(Bytes request_bytes) const
{
    const double cyc_ns = ticksToNs(cal.fpgaCyclePs);
    const double wire_ns =
        (static_cast<double>(request_bytes) +
         static_cast<double>(cal.txPerPacketOverheadBytes)) /
        cal.txBytesPerSecondPerLink * 1e9;

    std::vector<StageLatency> stages;
    stages.push_back({"FlitsToParallel (to-flit buffering)",
                      cal.flitsToParallelCycles,
                      cal.flitsToParallelCycles * cyc_ns});
    stages.push_back({"5:1 round-robin arbiter", cal.arbiterCycles,
                      cal.arbiterCycles * cyc_ns});
    stages.push_back({"Add-Seq# / flow control / Add-CRC",
                      cal.seqFlowCrcCycles, cal.seqFlowCrcCycles * cyc_ns});
    stages.push_back({"Convert to SerDes protocol",
                      cal.serdesConvertCycles,
                      cal.serdesConvertCycles * cyc_ns});
    stages.push_back({"Serialization + wire occupancy", 0, wire_ns});
    stages.push_back({"Propagation + cube-side deserialize", 0,
                      ticksToNs(cal.txPropagation)});
    return stages;
}

std::vector<StageLatency>
HmcController::rxStageBreakdown(Bytes response_bytes) const
{
    const double cyc_ns = ticksToNs(cal.fpgaCyclePs);
    const double wire_ns =
        (static_cast<double>(response_bytes) +
         static_cast<double>(cal.rxPerPacketOverheadBytes)) /
        cal.rxBytesPerSecondPerLink * 1e9;
    const unsigned flits =
        static_cast<unsigned>(response_bytes / flitBytes);

    std::vector<StageLatency> stages;
    stages.push_back({"Cube-side serialize + propagation", 0,
                      ticksToNs(cal.rxPropagation)});
    stages.push_back({"Wire occupancy", 0, wire_ns});
    stages.push_back({"Deserialize / verify CRC + Seq# / route",
                      cal.rxFixedCycles, cal.rxFixedCycles * cyc_ns});
    stages.push_back({"Flit reassembly", 0,
                      ticksToNs(cal.rxPerFlit) * flits});
    return stages;
}

double
HmcController::infrastructureLatencyNs(Bytes request_bytes,
                                       Bytes response_bytes) const
{
    double total = 0.0;
    for (const auto &s : txStageBreakdown(request_bytes))
        total += s.ns;
    for (const auto &s : rxStageBreakdown(response_bytes))
        total += s.ns;
    return total;
}

} // namespace hmcsim
