#include "service/service_stats.hh"

#include <cstdio>

#include "sim/fnv1a.hh"

namespace hmcsim
{

namespace
{

/** Shortest round-trippable decimal form (matches runner/sink.cc). */
std::string
fmtDouble(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

void
appendStats(std::string &out, const ServiceStats &s)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "\"requests\":%llu",
                  static_cast<unsigned long long>(s.requests));
    out += buf;
    out += ",\"throughput_mrps\":" + fmtDouble(s.throughputMrps());
    out += ",\"sojourn_avg_ns\":" + fmtDouble(s.meanSojournNs());
    out += ",\"sojourn_p50_ns\":" + fmtDouble(s.sojournP50Ns());
    out += ",\"sojourn_p99_ns\":" + fmtDouble(s.sojournP99Ns());
    out += ",\"sojourn_p999_ns\":" + fmtDouble(s.sojournP999Ns());
    out += ",\"sojourn_max_ns\":" +
           fmtDouble(ticksToNs(s.sojourn.maxTicks()));
    std::snprintf(buf, sizeof(buf), ",\"stat_digest\":\"%016llx\"",
                  static_cast<unsigned long long>(s.digest()));
    out += buf;
}

} // namespace

void
ServiceStats::record(Tick arrival, Tick completion)
{
    ++requests;
    if (arrival < firstArrival)
        firstArrival = arrival;
    if (completion > lastCompletion)
        lastCompletion = completion;
    sumSojournTicks += completion - arrival;
    sojourn.add(completion - arrival);
}

void
ServiceStats::merge(const ServiceStats &other)
{
    requests += other.requests;
    if (other.firstArrival < firstArrival)
        firstArrival = other.firstArrival;
    if (other.lastCompletion > lastCompletion)
        lastCompletion = other.lastCompletion;
    sumSojournTicks += other.sumSojournTicks;
    sojourn.merge(other.sojourn);
}

double
ServiceStats::elapsedSeconds() const
{
    if (requests == 0 || lastCompletion <= firstArrival)
        return 0.0;
    return ticksToSeconds(lastCompletion - firstArrival);
}

double
ServiceStats::throughputMrps() const
{
    const double seconds = elapsedSeconds();
    if (seconds <= 0.0)
        return 0.0;
    return static_cast<double>(requests) / seconds / 1e6;
}

double
ServiceStats::meanSojournNs() const
{
    if (requests == 0)
        return 0.0;
    return ticksToNs(sumSojournTicks) / static_cast<double>(requests);
}

std::uint64_t
ServiceStats::digest() const
{
    // The counters, then the sojourn multiset's own digest.
    Fnv1a h;
    h.u64(requests);
    h.u64(firstArrival);
    h.u64(lastCompletion);
    h.u64(sumSojournTicks);
    h.u64(sojourn.digest());
    return h.value();
}

std::string
serviceNodeJsonl(unsigned node, const ServiceStats &stats)
{
    char buf[48];
    std::snprintf(buf, sizeof(buf), "{\"type\":\"node\",\"node\":%u,",
                  node);
    std::string out = buf;
    appendStats(out, stats);
    out += '}';
    return out;
}

std::string
serviceAggregateJsonl(unsigned num_nodes, const ServiceStats &stats)
{
    char buf[56];
    std::snprintf(buf, sizeof(buf),
                  "{\"type\":\"aggregate\",\"nodes\":%u,", num_nodes);
    std::string out = buf;
    appendStats(out, stats);
    out += '}';
    return out;
}

} // namespace hmcsim
