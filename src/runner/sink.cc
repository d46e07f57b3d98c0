#include "runner/sink.hh"

#include <charconv>
#include <concepts>
#include <string_view>

#include "mem/backend.hh"

namespace hmcsim
{

void
appendDouble17(std::string &out, double v)
{
    char buf[32];
    const auto res = std::to_chars(buf, buf + sizeof(buf), v,
                                   std::chars_format::general, 17);
    out.append(buf, res.ptr);
}

namespace
{

/** A 64-bit value printed as zero-padded 16-digit lowercase hex. */
struct Hex64
{
    std::uint64_t v;
};

/**
 * One output line, built in a string and handed to the stream in one
 * write. Integers print in decimal and doubles as appendDouble17();
 * there is no other number format.
 */
struct Line
{
    std::string &s;

    Line &
    operator<<(std::string_view v)
    {
        s += v;
        return *this;
    }

    Line &
    operator<<(char c)
    {
        s += c;
        return *this;
    }

    template <std::unsigned_integral T>
    Line &
    operator<<(T v)
    {
        char buf[24];
        s.append(buf, std::to_chars(buf, buf + sizeof(buf), v).ptr);
        return *this;
    }

    Line &
    operator<<(double v)
    {
        appendDouble17(s, v);
        return *this;
    }

    Line &
    operator<<(Hex64 h)
    {
        char buf[16];
        char *end = std::to_chars(buf, buf + 16, h.v, 16).ptr;
        s.append(16 - static_cast<std::size_t>(end - buf), '0');
        s.append(buf, end);
        return *this;
    }
};

/** Minimal JSON string escape (names are ASCII identifiers here). */
std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (const char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += c;
    }
    return out;
}

} // namespace

void
JsonLinesSink::write(const SweepPointResult &p)
{
    const MeasurementResult &m = p.result;
    line.clear();
    Line buf{line};
    buf << "{\"digest\":\"" << Hex64{p.digest} << "\""
        << ",\"pattern\":\"" << jsonEscape(m.patternName) << "\""
        << ",\"mix\":\"" << requestMixName(m.mix) << "\""
        << ",\"size\":" << m.requestSize
        << ",\"mode\":\"" << addressingModeName(p.config.mode) << "\""
        << ",\"ports\":" << p.config.numPorts
        << ",\"backend\":\""
        << backendName(p.config.device.vault.backend.kind) << "\""
        << ",\"seed\":" << p.config.seed
        << ",\"raw_gbps\":" << m.rawGBps
        << ",\"mrps\":" << m.mrps
        << ",\"read_mrps\":" << m.readMrps
        << ",\"write_mrps\":" << m.writeMrps
        << ",\"read_payload_gbps\":" << m.readPayloadGBps
        << ",\"write_payload_gbps\":" << m.writePayloadGBps
        << ",\"read_lat_avg_ns\":" << m.readLatencyNs.mean()
        << ",\"read_lat_min_ns\":" << m.readLatencyNs.min()
        << ",\"read_lat_max_ns\":" << m.readLatencyNs.max()
        << ",\"read_lat_count\":" << m.readLatencyNs.count()
        << ",\"write_lat_avg_ns\":" << m.writeLatencyNs.mean()
        << ",\"read_lat_p50_ns\":" << m.readLatencyP50Ns
        << ",\"read_lat_p99_ns\":" << m.readLatencyP99Ns;
    // Per-stage breakdown columns: all zero unless the sweep traced.
    for (unsigned i = 0; i < numLifecycleStages; ++i) {
        buf << ",\"stage_"
            << lifecycleStageName(static_cast<LifecycleStage>(i))
            << "_avg_ns\":" << m.stages.stageNs[i].mean();
    }
    buf << ",\"stat_digest\":\"" << Hex64{p.statDigest} << "\"";
    if (includeTiming) {
        buf << ",\"wall_ms\":" << p.wallMs
            << ",\"from_cache\":" << (p.fromCache ? "true" : "false");
    }
    buf << "}\n";
    out.write(line.data(), static_cast<std::streamsize>(line.size()));
    if (streaming)
        out.flush();
}

void
JsonLinesSink::finish()
{
    out.flush();
}

void
CsvSink::write(const SweepPointResult &p)
{
    line.clear();
    Line buf{line};
    if (!wroteHeader) {
        buf << "digest,pattern,mix,size,mode,ports,backend,seed,"
               "raw_gbps,mrps,"
               "read_mrps,write_mrps,read_payload_gbps,"
               "write_payload_gbps,read_lat_avg_ns,read_lat_min_ns,"
               "read_lat_max_ns,read_lat_count,write_lat_avg_ns,"
               "read_lat_p50_ns,read_lat_p99_ns";
        for (unsigned i = 0; i < numLifecycleStages; ++i)
            buf << ",stage_"
                << lifecycleStageName(static_cast<LifecycleStage>(i))
                << "_avg_ns";
        buf << ",stat_digest";
        if (includeTiming)
            buf << ",wall_ms,from_cache";
        buf << '\n';
        wroteHeader = true;
    }
    const MeasurementResult &m = p.result;
    // Pattern names contain spaces but never commas or quotes.
    buf << Hex64{p.digest} << ',' << m.patternName << ','
        << requestMixName(m.mix) << ',' << m.requestSize << ','
        << addressingModeName(p.config.mode) << ','
        << p.config.numPorts << ','
        << backendName(p.config.device.vault.backend.kind) << ','
        << p.config.seed << ','
        << m.rawGBps << ',' << m.mrps << ','
        << m.readMrps << ',' << m.writeMrps << ','
        << m.readPayloadGBps << ','
        << m.writePayloadGBps << ','
        << m.readLatencyNs.mean() << ','
        << m.readLatencyNs.min() << ','
        << m.readLatencyNs.max() << ','
        << m.readLatencyNs.count() << ','
        << m.writeLatencyNs.mean() << ','
        << m.readLatencyP50Ns << ','
        << m.readLatencyP99Ns;
    for (unsigned i = 0; i < numLifecycleStages; ++i)
        buf << ',' << m.stages.stageNs[i].mean();
    buf << ',' << Hex64{p.statDigest};
    if (includeTiming)
        buf << ',' << p.wallMs << ',' << (p.fromCache ? '1' : '0');
    buf << '\n';
    out.write(line.data(), static_cast<std::streamsize>(line.size()));
}

void
CsvSink::finish()
{
    out.flush();
}

} // namespace hmcsim
