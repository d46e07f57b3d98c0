#include "trace/trace_sink.hh"

#include <cinttypes>
#include <cstdio>

#include "trace/lifecycle.hh"

namespace hmcsim
{

namespace
{

/**
 * Render ticks (integer picoseconds) as a decimal-microsecond JSON
 * number using only integer arithmetic, so the formatted trace is
 * byte-identical across runs, platforms, and job counts. Chrome's
 * "ts"/"dur" fields are microseconds.
 */
void
appendUs(std::string &out, Tick ticks)
{
    char buf[48];
    std::snprintf(buf, sizeof(buf), "%" PRIu64 ".%06" PRIu64,
                  ticks / tickUs, ticks % tickUs);
    out += buf;
}

} // namespace

void
ChromeTraceBuffer::packet(const Packet &pkt)
{
    // One "X" (complete) slice per lifecycle stage: pid = issuing
    // port, tid = stage index, so Perfetto shows one track per stage
    // under one process per port.
    const auto spans = lifecycleSpans(pkt);
    char head[256];
    for (unsigned i = 0; i < numLifecycleStages; ++i) {
        const auto stage = static_cast<LifecycleStage>(i);
        std::snprintf(head, sizeof(head),
                      ",\n{\"name\":\"%s\",\"cat\":\"lifecycle\","
                      "\"ph\":\"X\",\"pid\":%u,\"tid\":%u,\"ts\":",
                      lifecycleStageName(stage),
                      static_cast<unsigned>(pkt.port), i);
        buf += head;
        appendUs(buf, spans[i].begin);
        buf += ",\"dur\":";
        appendUs(buf, spans[i].duration());
        std::snprintf(head, sizeof(head),
                      ",\"args\":{\"id\":%" PRIu64 ",\"cmd\":\"%s\","
                      "\"addr\":%" PRIu64
                      ",\"vault\":%u,\"bank\":%u}}",
                      pkt.id, commandName(pkt.cmd), pkt.addr,
                      static_cast<unsigned>(pkt.vault),
                      static_cast<unsigned>(pkt.bank));
        buf += head;
    }
}

void
TimelineDigest::packet(const Packet &pkt)
{
    for (const std::uint64_t v :
         {pkt.id, pkt.tIssued, pkt.tLinkTx, pkt.tVaultArrive,
          pkt.tBankStart, pkt.tDramDone, pkt.tResponse})
        hash.u64(v);
    ++numPackets;
}

std::string
ChromeTraceBuffer::takeEvents()
{
    std::string out = std::move(buf);
    buf.clear();
    return out;
}

void
writeChromeTrace(std::ostream &os, const std::string &events)
{
    // The leading metadata event lets every following fragment carry
    // an unconditional comma prefix, which keeps concatenation of
    // per-sweep-point buffers a pure string join.
    os << "{\"traceEvents\":[\n"
       << "{\"ph\":\"M\",\"pid\":0,\"name\":\"process_name\","
          "\"args\":{\"name\":\"hmcsim\"}}"
       << events << "\n],\"displayTimeUnit\":\"ns\"}\n";
}

} // namespace hmcsim
