#include "gups/trace.hh"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <istream>
#include <numeric>
#include <sstream>
#include <string_view>

#include "gups/address_generator.hh"
#include "sim/logging.hh"
#include "sim/text.hh"

namespace hmcsim
{

namespace
{

Command
parseOp(std::string_view token, int line_no)
{
    if (token == "R" || token == "r")
        return Command::Read;
    if (token == "W" || token == "w")
        return Command::Write;
    if (token == "A" || token == "a")
        return Command::Atomic;
    fatal("trace line %d: unknown op '%.*s' (expected R/W/A)", line_no,
          static_cast<int>(token.size()), token.data());
}

/** All of @p text as a number in @p base: no sign, space or junk. */
bool
parseWhole(std::string_view text, int base, std::uint64_t &out)
{
    const char *end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), end, out, base);
    return !text.empty() && ec == std::errc() && ptr == end;
}

/** Parse one line into @p trace; blank and comment lines add nothing. */
void
parseTraceLine(std::string_view line, int line_no, Trace &trace)
{
    line = line.substr(0, line.find('#'));
    const std::string_view op = popWord(line);
    if (op.empty())
        return;
    TraceEntry entry;
    entry.op = parseOp(op, line_no);

    // Addresses are 0x-prefixed hex or plain decimal; a leading zero,
    // once read as octal, is refused rather than reinterpreted.
    const std::string_view addr = popWord(line);
    if (addr.empty())
        fatal("trace line %d: missing address", line_no);
    const bool hex = addr.starts_with("0x") || addr.starts_with("0X");
    const bool octal = !hex && addr.size() > 1 && addr[0] == '0';
    if (octal || !(hex ? parseWhole(addr.substr(2), 16, entry.addr)
                       : parseWhole(addr, 10, entry.addr)))
        fatal("trace line %d: bad address '%.*s'", line_no,
              static_cast<int>(addr.size()), addr.data());

    if (entry.op == Command::Atomic) {
        entry.size = 16;
    } else {
        const std::string_view size = popWord(line);
        if (size.empty())
            fatal("trace line %d: missing size", line_no);
        if (!parseWhole(size, 10, entry.size))
            fatal("trace line %d: bad size '%.*s'", line_no,
                  static_cast<int>(size.size()), size.data());
        if (const char *why = requestSizeError(entry.size))
            fatal("trace line %d: bad size %llu (%s)", line_no,
                  static_cast<unsigned long long>(entry.size), why);
    }
    if (const std::string_view extra = popWord(line); !extra.empty())
        fatal("trace line %d: unexpected field '%.*s'", line_no,
              static_cast<int>(extra.size()), extra.data());
    trace.push_back(entry);
}

} // namespace

Trace
parseTrace(std::istream &in)
{
    Trace trace;
    std::string line;
    int line_no = 0;
    while (std::getline(in, line))
        parseTraceLine(line, ++line_no, trace);
    return trace;
}

Trace
parseTraceString(const std::string &text)
{
    Trace trace;
    std::string_view rest = text;
    for (int line_no = 1; !rest.empty(); ++line_no) {
        const std::size_t nl = std::min(rest.find('\n'), rest.size());
        parseTraceLine(rest.substr(0, nl), line_no, trace);
        rest.remove_prefix(std::min(nl + 1, rest.size()));
    }
    return trace;
}

std::string
formatTrace(const Trace &trace)
{
    std::ostringstream out;
    for (const TraceEntry &e : trace) {
        switch (e.op) {
          case Command::Read:
            out << "R 0x" << std::hex << e.addr << std::dec << ' '
                << e.size << '\n';
            break;
          case Command::Write:
            out << "W 0x" << std::hex << e.addr << std::dec << ' '
                << e.size << '\n';
            break;
          case Command::Atomic:
            out << "A 0x" << std::hex << e.addr << std::dec << '\n';
            break;
        }
    }
    return out.str();
}

namespace
{

/** Pick read or write per the configured write fraction. */
Command
pickOp(const SyntheticTraceConfig &cfg, Xoshiro256StarStar &rng)
{
    return rng.nextDouble() < cfg.writeFraction ? Command::Write
                                                : Command::Read;
}

Addr
alignDown(Addr addr, Bytes granule)
{
    return addr / granule * granule;
}

} // namespace

Trace
uniformTrace(const SyntheticTraceConfig &cfg)
{
    Xoshiro256StarStar rng(cfg.seed);
    Trace trace;
    trace.reserve(cfg.numEntries);
    const Bytes slots = cfg.footprint / cfg.requestSize;
    for (std::size_t i = 0; i < cfg.numEntries; ++i) {
        trace.push_back({pickOp(cfg, rng),
                         cfg.base + rng.nextBounded(slots) *
                                        cfg.requestSize,
                         cfg.requestSize});
    }
    return trace;
}

Trace
stridedTrace(const SyntheticTraceConfig &cfg, Bytes stride)
{
    if (stride == 0)
        fatal("strided trace needs a non-zero stride");
    Xoshiro256StarStar rng(cfg.seed);
    Trace trace;
    trace.reserve(cfg.numEntries);
    Addr cursor = 0;
    for (std::size_t i = 0; i < cfg.numEntries; ++i) {
        trace.push_back({pickOp(cfg, rng),
                         cfg.base + alignDown(cursor % cfg.footprint,
                                              cfg.requestSize),
                         cfg.requestSize});
        cursor += stride;
    }
    return trace;
}

Trace
zipfTrace(const SyntheticTraceConfig &cfg, double alpha,
          std::size_t num_objects)
{
    if (num_objects == 0)
        fatal("zipf trace needs at least one object");
    Xoshiro256StarStar rng(cfg.seed);

    // CDF over object ranks: weight(rank) = 1 / rank^alpha.
    std::vector<double> cdf(num_objects);
    double sum = 0.0;
    for (std::size_t r = 0; r < num_objects; ++r) {
        sum += 1.0 / std::pow(static_cast<double>(r + 1), alpha);
        cdf[r] = sum;
    }
    for (double &v : cdf)
        v /= sum;

    // Scatter object ranks over the footprint with a fixed random
    // placement so hot objects are not address-adjacent.
    const Bytes slots = cfg.footprint / cfg.requestSize;
    std::vector<Addr> placement(num_objects);
    for (auto &slot : placement)
        slot = rng.nextBounded(slots);

    Trace trace;
    trace.reserve(cfg.numEntries);
    for (std::size_t i = 0; i < cfg.numEntries; ++i) {
        const double u = rng.nextDouble();
        const auto it = std::lower_bound(cdf.begin(), cdf.end(), u);
        const auto rank =
            static_cast<std::size_t>(it - cdf.begin());
        trace.push_back({pickOp(cfg, rng),
                         cfg.base + placement[rank] * cfg.requestSize,
                         cfg.requestSize});
    }
    return trace;
}

Trace
pointerChaseTrace(const SyntheticTraceConfig &cfg)
{
    Xoshiro256StarStar rng(cfg.seed);
    // Visit a random permutation of distinct slots: each access's
    // target is stored in the previous node, so issue order is the
    // dependence order (replay with maxOutstanding = 1).
    const Bytes slots_in_footprint = cfg.footprint / cfg.requestSize;
    const std::size_t nodes =
        static_cast<std::size_t>(std::min<Bytes>(cfg.numEntries,
                                                 slots_in_footprint));
    std::vector<Addr> order(nodes);
    std::iota(order.begin(), order.end(), 0);
    for (std::size_t i = nodes; i > 1; --i)
        std::swap(order[i - 1], order[rng.nextBounded(i)]);

    Trace trace;
    trace.reserve(cfg.numEntries);
    for (std::size_t i = 0; i < cfg.numEntries; ++i) {
        trace.push_back({Command::Read,
                         cfg.base + order[i % nodes] * cfg.requestSize,
                         cfg.requestSize});
    }
    return trace;
}

} // namespace hmcsim
