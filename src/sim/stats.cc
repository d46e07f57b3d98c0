#include "sim/stats.hh"

#include <algorithm>
#include <cmath>

#include "sim/fnv1a.hh"
#include "sim/logging.hh"

namespace hmcsim
{

void
SampleStats::merge(const SampleStats &other)
{
    if (other._count == 0)
        return;
    if (_count == 0) {
        *this = other;
        return;
    }
    // Chan et al. parallel variance combination.
    const double delta = other.welfordMean - welfordMean;
    const auto na = static_cast<double>(_count);
    const auto nb = static_cast<double>(other._count);
    const double n = na + nb;
    welfordMean += delta * nb / n;
    welfordM2 += other.welfordM2 + delta * delta * na * nb / n;
    _count += other._count;
    _sum += other._sum;
    if (other._min < _min)
        _min = other._min;
    if (other._max > _max)
        _max = other._max;
}

double
SampleStats::stddev() const
{
    return std::sqrt(variance());
}

void
SampleStats::combineChunk(const double *values, std::size_t n)
{
    // Chunk mean and M2 with four-way partial sums (vectorizable, no
    // loop-carried divide), folded into the running accumulators by
    // the same Chan et al. combination merge() uses. This replaces
    // the per-sample Welford recurrence, whose delta/count divide is
    // a ~14-cycle loop-carried chain.
    double s0 = 0.0;
    double s1 = 0.0;
    double s2 = 0.0;
    double s3 = 0.0;
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        s0 += values[i];
        s1 += values[i + 1];
        s2 += values[i + 2];
        s3 += values[i + 3];
    }
    for (; i < n; ++i)
        s0 += values[i];
    const double cmean = (s0 + s1 + s2 + s3) / static_cast<double>(n);

    double q0 = 0.0;
    double q1 = 0.0;
    double q2 = 0.0;
    double q3 = 0.0;
    i = 0;
    for (; i + 4 <= n; i += 4) {
        const double d0 = values[i] - cmean;
        const double d1 = values[i + 1] - cmean;
        const double d2 = values[i + 2] - cmean;
        const double d3 = values[i + 3] - cmean;
        q0 += d0 * d0;
        q1 += d1 * d1;
        q2 += d2 * d2;
        q3 += d3 * d3;
    }
    for (; i < n; ++i) {
        const double d = values[i] - cmean;
        q0 += d * d;
    }
    const double cm2 = q0 + q1 + q2 + q3;

    if (_count == 0) {
        welfordMean = cmean;
        welfordM2 = cm2;
    } else {
        const double delta = cmean - welfordMean;
        const auto na = static_cast<double>(_count);
        const auto nb = static_cast<double>(n);
        const double nt = na + nb;
        welfordMean += delta * nb / nt;
        welfordM2 += cm2 + delta * delta * na * nb / nt;
    }
    _count += n;
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
    buildTickPlan();
}

void
Histogram::buildTickPlan()
{
    // bin(t) = t / widthTicks matches the floating-point path
    // fl((fl(t / 1000) - lo) / width) for every tick t when:
    //  - lo is exactly 0, so the subtraction is the identity;
    //  - the bin width is an exact integer number of ticks W that is
    //    a multiple of 125, making width = W/1000 = (W/125)/8 dyadic
    //    and hence exactly representable, as is every bin boundary
    //    product k * width below 2^53;
    //  - width * num_bins reproduces hi exactly, so the overflow
    //    predicate t >= W * num_bins coincides with v >= hi;
    //  - W * num_bins < 1e12, bounding the division's rounding error
    //    (<= num_bins * 2^-51 relative) strictly inside the distance
    //    to the nearest bin boundary.
    // Exact boundaries t = k*W land in bin k on both paths because
    // the quotient is exact. Anything else keeps tickPlan false and
    // the flush falls back to per-sample floating-point binning.
    static_assert(tickNs == 1000, "tick plan derivation assumes ps ticks");
    if (lo != 0.0 || width <= 0.0 || width >= 1e12)
        return;
    const auto w_ticks =
        static_cast<std::uint64_t>(std::llround(width * 1000.0));
    const auto nbins = static_cast<double>(bins.size());
    if (w_ticks >= 1 && w_ticks % 125 == 0 &&
        width == static_cast<double>(w_ticks) / 1000.0 &&
        width * nbins == hi &&
        static_cast<double>(w_ticks) * nbins < 1e12) {
        tickBinTicks = w_ticks;
        tickOverflowTicks =
            w_ticks * static_cast<std::uint64_t>(bins.size());
        // Rounded-up reciprocal for a divide-free, fixup-free bin(t):
        // w_ticks never divides 2^64 (it has a factor of 5^3), so
        // (2^64 - 1) / W equals floor(2^64 / W) and magic = that + 1
        // satisfies magic * W = 2^64 + e with 0 < e < W. Then
        // mulhi(t, magic) = floor(t/W + t*e / (W * 2^64)), which is
        // exactly t / W for every t below tickOverflowTicks provided
        // (tickOverflowTicks - 1) * e < 2^64 -- the worst case is
        // t = qW + (W-1), where the error term must stay under 1/W.
        // flushInto's hot loop relies on this being exact: it does a
        // single multiply-high per sample, no divide, no fixup.
        tickBinMagic = ~std::uint64_t{0} / w_ticks + 1;
        const std::uint64_t excess = tickBinMagic * w_ticks; // mod 2^64
        tickPlan = (unsigned __int128){tickOverflowTicks - 1} * excess <
                   ((unsigned __int128){1} << 64);
    }
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
TickLatencyBatch::flushInto(SampleStats &stats, Histogram *hist)
{
    const std::size_t cnt = n;
    n = 0;
    if (cnt == 0)
        return;

    // One fused pass: the tick->ns conversion divide is the only
    // divider-port operation left, and the pinned sequential sum
    // chain, the integer min/max, and the histogram increments all
    // hide under it. Splitting these into separate passes measurably
    // loses -- the passes stop overlapping and the serial sum chain
    // runs alone (docs/performance.md).
    double ns[capacity];
    double acc = stats._sum;
    Tick tmin = ~Tick{0};
    Tick tmax = 0;

    if (hist != nullptr && hist->tickPlan) {
        const std::uint64_t magic = hist->tickBinMagic;
        const std::uint64_t overflow_at = hist->tickOverflowTicks;
        std::uint64_t *bin_data = hist->bins.data();
        std::uint64_t overflowed = 0;
        for (std::size_t i = 0; i < cnt; ++i) {
            const Tick t = buf[i];
            const double v = ticksToNs(t);
            ns[i] = v;
            acc += v;
            if (t < tmin)
                tmin = t;
            if (t > tmax)
                tmax = t;
            // Underflow is impossible: t >= 0 and lo == 0. The bin
            // divide is a single multiply-high by the rounded-up
            // reciprocal, exact for every in-range tick (buildTickPlan
            // verified the precondition) -- the runtime bin width must
            // touch neither the divider unit nor a fixup multiply, or
            // the batch loses its advantage over the per-sample path.
            if (t >= overflow_at) {
                ++overflowed;
            } else {
                const auto bin = static_cast<std::uint64_t>(
                    (unsigned __int128){t} * magic >> 64);
                ++bin_data[bin];
            }
        }
        hist->_overflow += overflowed;
        hist->total += cnt;
    } else if (hist != nullptr) {
        for (std::size_t i = 0; i < cnt; ++i) {
            const Tick t = buf[i];
            const double v = ticksToNs(t);
            ns[i] = v;
            acc += v;
            if (t < tmin)
                tmin = t;
            if (t > tmax)
                tmax = t;
            hist->sample(v);
        }
    } else {
        for (std::size_t i = 0; i < cnt; ++i) {
            const Tick t = buf[i];
            const double v = ticksToNs(t);
            ns[i] = v;
            acc += v;
            if (t < tmin)
                tmin = t;
            if (t > tmax)
                tmax = t;
        }
    }

    stats._sum = acc;
    // ticksToNs is monotone non-decreasing, so converting the integer
    // extremes reproduces the per-sample floating-point comparisons.
    const double vmin = ticksToNs(tmin);
    const double vmax = ticksToNs(tmax);
    if (vmin < stats._min)
        stats._min = vmin;
    if (vmax > stats._max)
        stats._max = vmax;
    stats.combineChunk(ns, cnt);
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
