// lint:file(hot-path) -- event-core file: allocation-free callables (no std::function) and HMCSIM_DCHECK-only invariants, enforced by hmcsim-lint.
#include "gups/gups_port.hh"

#include <memory>
#include <sstream>
#include <utility>

#include "sim/check.hh"
#include "sim/logging.hh"
#include "trace/lifecycle.hh"

namespace hmcsim
{

GupsPort::GupsPort(unsigned id, const GupsPortConfig &cfg, Bytes capacity,
                   EventQueue &queue, SubmitFn submit, std::uint64_t seed)
    : portId(id),
      cfg(cfg),
      queue(&queue),
      submit(std::move(submit)),
      receiverId(queue.addReceiver(this)),
      addrGen(
          AddressGeneratorConfig{
              cfg.mode,
              cfg.requestSize,
              capacity,
              cfg.mask,
              cfg.antiMask,
              // Stagger linear streams: each port works a different
              // region, 4 KB aligned, like independent array slices.
              cfg.staggerLinearStarts
                  ? (capacity / gupsPortCount) * id & ~Addr(4095)
                  : 0,
          },
          seed * 0x9E3779B97F4A7C15ULL + id + 1),
      tags(cfg.tagPoolDepth),
      writeCredits(cfg.writeCreditDepth),
      // Distinct id space per port so packet ids never collide.
      nextPacketId(static_cast<std::uint64_t>(id) << 48)
{
    // On the AC-510's two links, ports 0-4 feed link 0 and 5-8 link 1
    // (five TX_ports per hmc_node, Fig. 14); with more links, ports
    // spread round-robin.
    if (cfg.numLinks == 2) {
        linkId = portId < 5 ? 0 : 1;
    } else {
        linkId = static_cast<std::uint8_t>(
            portId % (cfg.numLinks ? cfg.numLinks : 1));
    }

    // Per-completion byte costs are fixed by the port's mix: tagged
    // requests are all Reads (payload = requestSize) or all Atomics
    // (16 B immediate operand), never both.
    const bool atomic = cfg.mix == RequestMix::Atomic;
    readPayload = atomic ? 16 : cfg.requestSize;
    readTransactionBytes = transactionBytes(
        atomic ? Command::Atomic : Command::Read, readPayload);
    writePayload = cfg.requestSize;
    writeTransactionBytes =
        transactionBytes(Command::Write, writePayload);

    // Open loop: per-tag arrival stamps so each completion can report
    // its sojourn (gups/arrival_feed.hh).
    if (cfg.arrivals)
        arrivalByTag.assign(cfg.tagPoolDepth, 0);
}

void
GupsPort::start()
{
    running = true;
    scheduleIssue();
}

void
GupsPort::stop()
{
    running = false;
}

Packet
GupsPort::makePacket(Command cmd, Addr addr)
{
    Packet pkt;
    pkt.id = nextPacketId++;
    pkt.cmd = cmd;
    pkt.addr = addr;
    pkt.payload = cfg.requestSize;
    pkt.port = static_cast<std::uint8_t>(portId);
    pkt.link = linkId;
    pkt.tIssued = queue->now();
    return pkt;
}

void
GupsPort::scheduleIssue()
{
    scheduleIssueAt(queue->now());
}

void
GupsPort::scheduleIssueAt(Tick earliest)
{
    // A stopped port generates nothing new, but dependent rw writes
    // whose reads already returned must still retire.
    if (issuePending || (!running && pendingRmwWrites.empty()))
        return;
    issuePending = true;
    const Tick when =
        nextIssueAllowed > earliest ? nextIssueAllowed : earliest;
    queue->schedule(when, IssueEvent{receiverId});
}

void
GupsPort::issueOne()
{
    issuePending = false;
    if (!running && pendingRmwWrites.empty())
        return;

    bool issued = false;

    // Arbitration: dependent rw writes go first (the hardware must
    // retire them to free the write FIFO), then fresh operations.
    if (!pendingRmwWrites.empty() && writeCredits > 0) {
        const Addr addr = pendingRmwWrites.front();
        pendingRmwWrites.pop_front();
        --writeCredits;
        ++outstandingWrites;
        ++_stats.writesIssued;
        Packet pkt = makePacket(Command::Write, addr);
        submit.get()(std::move(pkt));
        issued = true;
    } else if (running && cfg.arrivals) {
        // Open loop: admit the next scheduled arrival, if due. The
        // tag pool still gates admission -- a burst that outruns the
        // cube queues right here, and that wait is exactly the
        // sojourn-vs-service-latency gap the fleet layer measures
        // (src/service/).
        const Tick arrival = cfg.arrivals->peekArrival();
        if (arrival <= queue->now()) {
            if (tags.available()) {
                Packet pkt = makePacket(Command::Read, nextAddress());
                pkt.tag = tags.allocate();
                arrivalByTag[pkt.tag] = arrival;
                cfg.arrivals->pop();
                ++outstandingReads;
                ++_stats.readsIssued;
                ++generatedOps;
                submit.get()(std::move(pkt));
                issued = true;
            }
            // No free tag: a response will wake us.
        } else if (arrival != maxTick) {
            // Stream idle: sleep until the next arrival tick.
            scheduleIssueAt(arrival);
        }
        // Exhausted feed: nothing left to do; the queue drains.
    } else if (running && !budgetExhausted()) {
        switch (cfg.mix) {
          case RequestMix::ReadOnly:
          case RequestMix::ReadModifyWrite:
            if (tags.available()) {
                Packet pkt = makePacket(Command::Read, nextAddress());
                pkt.tag = tags.allocate();
                ++outstandingReads;
                ++_stats.readsIssued;
                ++generatedOps;
                submit.get()(std::move(pkt));
                issued = true;
            }
            break;
          case RequestMix::WriteOnly:
            if (writeCredits > 0) {
                --writeCredits;
                ++outstandingWrites;
                ++_stats.writesIssued;
                ++generatedOps;
                Packet pkt = makePacket(Command::Write, nextAddress());
                submit.get()(std::move(pkt));
                issued = true;
            }
            break;
          case RequestMix::Atomic:
            if (tags.available()) {
                Packet pkt = makePacket(Command::Atomic, nextAddress());
                // Atomic requests carry a 16 B immediate operand; the
                // update happens in the vault controller.
                pkt.payload = 16;
                pkt.tag = tags.allocate();
                ++outstandingReads;
                ++_stats.readsIssued;
                ++generatedOps;
                submit.get()(std::move(pkt));
                issued = true;
            }
            break;
        }
    }

    if (issued) {
        nextIssueAllowed = queue->now() + cfg.issueInterval;
        // Keep the pipeline full: try again next cycle. If nothing can
        // issue then, the port goes quiet until a response arrives.
        scheduleIssue();
    }
    // Not issued: wait for onResponse() to wake us.
}

void
GupsPort::registerCheckers(CheckerRegistry &registry,
                           const std::string &name) const
{
    // A tag is allocated per outstanding tagged request and nothing
    // else; any drift is a leak or a live-tag reuse.
    registry.add(std::make_unique<TagPoolChecker>(
        name + ".tags", tags,
        [this] { return static_cast<std::uint64_t>(outstandingReads); }));
    // Write FIFO credits obey the same conservation law as tags.
    registry.addLambda(name + ".write_credits",
                       [this](Tick) -> std::string {
        if (writeCredits + outstandingWrites == cfg.writeCreditDepth)
            return {};
        std::ostringstream out;
        out << "write-credit conservation broken: credits="
            << writeCredits << " + outstanding=" << outstandingWrites
            << " != depth=" << cfg.writeCreditDepth;
        return out.str();
    });
}

void
GupsPort::registerStats(StatRegistry &registry,
                        const StatPath &path) const
{
    registry.addValue((path / "reads_issued").str(),
                      "tagged requests issued", &_stats.readsIssued);
    registry.addValue((path / "writes_issued").str(),
                      "write requests issued", &_stats.writesIssued);
    registry.addValue((path / "reads_completed").str(),
                      "tagged responses received", &_stats.readsCompleted);
    registry.addValue((path / "writes_completed").str(),
                      "write responses received", &_stats.writesCompleted);
    registry.addValue((path / "raw_bytes").str(),
                      "raw link bytes of completed transactions",
                      &_stats.rawBytes);
    registry.add((path / "read_latency_avg_ns").str(),
                 "mean tagged-request round trip",
                 [this] { return _stats.readLatencyNs.mean(); });
    registry.add((path / "read_latency_max_ns").str(),
                 "max tagged-request round trip",
                 [this] { return _stats.readLatencyNs.max(); });
    registry.addValue((path / "thermal_failures").str(),
                      "responses flagging thermal shutdown",
                      &_stats.thermalFailures);
}

void
GupsPort::onResponse(const Packet &pkt)
{
    const double latency_ns = ticksToNs(queue->now() - pkt.tIssued);

    if (pkt.thermalFailure)
        ++_stats.thermalFailures;

    switch (pkt.cmd) {
      case Command::Read:
      case Command::Atomic:
        // Protocol boundary reachable from device bugs: a stray
        // response must abort in release too (docs/correctness.md).
        // lint:allow(hot-check)
        HMCSIM_CHECK(outstandingReads > 0,
                     "stray read response (port %u, packet id %llu)",
                     portId, static_cast<unsigned long long>(pkt.id));
        --outstandingReads;
        tags.release(pkt.tag);
        // Open loop: report sojourn (arrival -> completion) before the
        // tag can be reused by the wake below.
        if (cfg.arrivals)
            cfg.arrivals->complete(arrivalByTag[pkt.tag], queue->now());
        _stats.readLatencyNs.sample(latency_ns);
        _stats.readLatencyHistNs.sample(latency_ns);
        ++_stats.readsCompleted;
        _stats.rawBytes += readTransactionBytes;
        _stats.readPayloadBytes += readPayload;
        if (cfg.mix == RequestMix::ReadModifyWrite)
            pendingRmwWrites.push_back(pkt.addr);
        break;
      case Command::Write:
        // Same protocol boundary as the read-response check above.
        // lint:allow(hot-check)
        HMCSIM_CHECK(outstandingWrites > 0,
                     "stray write response (port %u, packet id %llu)",
                     portId, static_cast<unsigned long long>(pkt.id));
        --outstandingWrites;
        ++writeCredits;
        _stats.writeLatencyNs.sample(latency_ns);
        ++_stats.writesCompleted;
        _stats.rawBytes += writeTransactionBytes;
        _stats.writePayloadBytes += writePayload;
        break;
    }

    // Lifecycle tracing: this is the one place where a packet's full
    // set of stage stamps is known. Disabled tracing costs exactly
    // this untaken branch (bench_trace_overhead guards the claim).
    if (cfg.tracer)
        cfg.tracer->record(pkt);

    scheduleIssue();
}

} // namespace hmcsim
