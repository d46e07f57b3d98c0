#include "sim/stats.hh"

#include <algorithm>

#include "sim/fnv1a.hh"
#include "sim/logging.hh"

namespace hmcsim
{

void
SampleStats::merge(const SampleStats &other)
{
    _count += other._count;
    _sum += other._sum;
    if (other._min < _min)
        _min = other._min;
    if (other._max > _max)
        _max = other._max;
}

Histogram::Histogram(double lo, double hi, std::size_t num_bins)
    : lo(lo), hi(hi),
      width((hi - lo) / static_cast<double>(num_bins)),
      bins(num_bins, 0)
{
    if (num_bins == 0)
        fatal("Histogram needs at least one bin");
    if (hi <= lo)
        fatal("Histogram range must be non-empty");
}

void
Histogram::sample(double value)
{
    ++total;
    if (value < lo) {
        ++_underflow;
    } else if (value >= hi) {
        ++_overflow;
    } else {
        auto bin = static_cast<std::size_t>((value - lo) / width);
        if (bin >= bins.size())
            bin = bins.size() - 1; // floating point edge
        ++bins[bin];
    }
}

void
Histogram::merge(const Histogram &other)
{
    if (bins.size() != other.bins.size() || lo != other.lo ||
        hi != other.hi)
        fatal("merging histograms with different binning");
    for (std::size_t i = 0; i < bins.size(); ++i)
        bins[i] += other.bins[i];
    _underflow += other._underflow;
    _overflow += other._overflow;
    total += other.total;
}

void
Histogram::reset()
{
    for (auto &bin : bins)
        bin = 0;
    _underflow = 0;
    _overflow = 0;
    total = 0;
}

double
Histogram::binCenter(std::size_t bin) const
{
    return lo + (static_cast<double>(bin) + 0.5) * width;
}

double
Histogram::quantile(double p) const
{
    if (total == 0)
        return 0.0;
    const std::uint64_t target = quantileTargetRank(total, p);
    std::uint64_t seen = _underflow;
    if (seen > target)
        return lo;
    for (std::size_t i = 0; i < bins.size(); ++i) {
        seen += bins[i];
        if (seen > target)
            return binCenter(i);
    }
    return hi;
}

void
TickQuantiles::ensureSorted() const
{
    if (sorted)
        return;
    std::sort(samples.begin(), samples.end());
    sorted = true;
}

void
TickQuantiles::merge(const TickQuantiles &other)
{
    if (other.samples.empty())
        return;
    samples.insert(samples.end(), other.samples.begin(),
                   other.samples.end());
    sorted = false;
}

Tick
TickQuantiles::quantileTicks(double p) const
{
    if (samples.empty())
        return 0;
    ensureSorted();
    std::uint64_t rank = quantileTargetRank(samples.size(), p);
    if (rank >= samples.size())
        rank = samples.size() - 1;
    return samples[rank];
}

Tick
TickQuantiles::maxTicks() const
{
    if (samples.empty())
        return 0;
    ensureSorted();
    return samples.back();
}

std::uint64_t
TickQuantiles::digest() const
{
    ensureSorted();
    // The count, then each sorted tick.
    Fnv1a h;
    h.u64(samples.size());
    for (const Tick t : samples)
        h.u64(t);
    return h.value();
}

double
BandwidthMeter::gbps() const
{
    if (stopTick <= startTick)
        return 0.0;
    return toGBps(bytesPerSecond(bytes, stopTick - startTick));
}

} // namespace hmcsim
