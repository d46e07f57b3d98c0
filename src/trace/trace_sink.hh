/**
 * @file
 * Event-stream sinks for sampled packet lifecycles.
 *
 * The aggregate breakdown (lifecycle.hh) answers "where does latency
 * go on average"; the event stream answers "what happened to *this*
 * packet". ChromeTraceBuffer renders sampled lifecycles in the Chrome
 * trace-event JSON format, which Perfetto (ui.perfetto.dev) and
 * chrome://tracing both load directly: one track per lifecycle stage,
 * one slice per packet per stage (docs/observability.md).
 *
 * Formatting is fully deterministic -- timestamps are derived from
 * simulated ticks with integer arithmetic, never from the wall clock
 * -- so two runs of the same configuration produce byte-identical
 * buffers. The parallel sweep runner relies on this to keep traced
 * sweeps bit-identical across --jobs counts.
 */

#ifndef HMCSIM_TRACE_TRACE_SINK_HH
#define HMCSIM_TRACE_TRACE_SINK_HH

#include <cstdint>
#include <ostream>
#include <string>

#include "protocol/packet.hh"
#include "sim/fnv1a.hh"

namespace hmcsim
{

/**
 * Destination for sampled packet lifecycles. Implementations receive
 * only completed packets (every timestamp stamped). Same threading
 * contract as the simulator: one sink per system, no sharing.
 */
class PacketTraceSink
{
  public:
    virtual ~PacketTraceSink() = default;

    /** One sampled, completed packet. */
    virtual void packet(const Packet &pkt) = 0;

    /** Discard everything buffered so far (end of warm-up). */
    virtual void reset() {}
};

/**
 * Chrome trace-event buffer: accumulates one comma-prefixed "X"
 * (complete) event per lifecycle stage per sampled packet. The
 * fragment string is not itself a JSON document; wrap it (or a
 * canonical-order concatenation of several buffers' fragments) with
 * writeChromeTrace() to produce one.
 */
class ChromeTraceBuffer final : public PacketTraceSink
{
  public:
    void packet(const Packet &pkt) override;
    void reset() override { buf.clear(); }

    /** Accumulated comma-prefixed event fragments. */
    const std::string &events() const { return buf; }

    /** Move the fragments out (leaves the buffer empty). */
    std::string takeEvents();

  private:
    std::string buf;
};

/**
 * Packet-timeline digest: folds each packet's id and its six lifecycle
 * stamps (tIssued ... tResponse), in the order packets complete, into
 * an FNV-1a digest. Two runs agree only if every packet took the same
 * path at the same ticks, so it sees event reorderings that leave the
 * aggregate counters (StatRegistry::digest) unchanged. It keeps the
 * warm-up's packets (reset() is a no-op), so one digest can span
 * several runs; the determinism self-check feeds it every packet
 * (runSelfCheck).
 */
class TimelineDigest final : public PacketTraceSink
{
  public:
    void packet(const Packet &pkt) override;

    std::uint64_t value() const { return hash.value(); }

    /** Packets folded in. */
    std::uint64_t packets() const { return numPackets; }

  private:
    Fnv1a hash;
    std::uint64_t numPackets = 0;
};

/**
 * Wrap comma-prefixed event fragments into a complete Chrome
 * trace-event JSON document:
 *   {"traceEvents":[{metadata event}<events>]}
 * @p events may be empty or a concatenation of several buffers'
 * fragments (e.g. the sweep runner joining per-point buffers in
 * canonical point order).
 */
void writeChromeTrace(std::ostream &os, const std::string &events);

} // namespace hmcsim

#endif // HMCSIM_TRACE_TRACE_SINK_HH
