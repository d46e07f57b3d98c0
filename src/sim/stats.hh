/**
 * @file
 * Statistics primitives used by monitoring units and benches.
 */

#ifndef HMCSIM_SIM_STATS_HH
#define HMCSIM_SIM_STATS_HH

#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "sim/types.hh"

namespace hmcsim
{

/**
 * Nearest-rank rule shared by every exact-quantile consumer: the
 * p-quantile of @p total ordered samples is the value with
 * zero-based rank floor(p * total). Histogram::quantile walks its
 * bins until the cumulative count exceeds this rank, and
 * TickQuantiles indexes its sorted samples with it directly, so a
 * percentile computed from raw ticks and one computed from an exact
 * integer-tick histogram agree on which sample they name.
 */
constexpr std::uint64_t
quantileTargetRank(std::uint64_t total, double p)
{
    return static_cast<std::uint64_t>(p * static_cast<double>(total));
}

/**
 * Exact quantiles over integer tick samples: keeps every sample and
 * answers quantile queries by nearest rank (quantileTargetRank) over
 * the sorted values -- no binning error, so p999 of a 100k-request
 * fleet names one specific observed sojourn time.
 *
 * merge() concatenates and re-sorts; because the answer depends only
 * on the sorted multiset, merged results are independent of merge
 * order, which is what makes fleet aggregates byte-identical at any
 * --jobs (docs/service.md).
 */
class TickQuantiles
{
  public:
    /** Record one sample. */
    void
    add(Tick value)
    {
        samples.push_back(value);
        sorted = false;
    }

    /** Fold another accumulator's samples into this one. */
    void merge(const TickQuantiles &other);

    std::uint64_t count() const { return samples.size(); }

    /** Nearest-rank p-quantile in ticks; 0 when empty. */
    Tick quantileTicks(double p) const;

    /** Nearest-rank p-quantile converted to nanoseconds. */
    double
    quantileNs(double p) const
    {
        return ticksToNs(quantileTicks(p));
    }

    /** Largest sample, or 0 when empty. */
    Tick maxTicks() const;

    /**
     * FNV-1a digest of the sorted multiset (count then each tick).
     * Pure function of the recorded samples, independent of insertion
     * and merge order.
     */
    std::uint64_t digest() const;

    void
    reset()
    {
        samples.clear();
        sorted = true;
    }

  private:
    void ensureSorted() const;

    /** Mutable so const quantile queries can sort lazily; the
     *  logical value (the multiset) never changes under const. */
    mutable std::vector<Tick> samples;
    mutable bool sorted = true;
};

/**
 * Running sample statistics: count, sum, min, max and mean -- the
 * average, minimum and maximum the GUPS monitoring unit reports
 * (Fig. 4b).
 */
class SampleStats
{
  public:
    /** Record one sample. */
    void
    sample(double value)
    {
        ++_count;
        _sum += value;
        if (value < _min)
            _min = value;
        if (value > _max)
            _max = value;
    }

    /** Merge another accumulator into this one. */
    void merge(const SampleStats &other);

    /** Remove all samples. */
    void
    reset()
    {
        *this = SampleStats();
    }

    std::uint64_t count() const { return _count; }
    double sum() const { return _sum; }
    /** Minimum sample, or 0 when empty. */
    double min() const { return _count ? _min : 0.0; }
    /** Maximum sample, or 0 when empty. */
    double max() const { return _count ? _max : 0.0; }
    /** Arithmetic mean, or 0 when empty. */
    double
    mean() const
    {
        return _count ? _sum / static_cast<double>(_count) : 0.0;
    }

    /**
     * Exact internal state, for bit-faithful round trips through the
     * runner's result cache. min/max are the raw accumulators (+/-inf
     * when empty), not the 0-defaulted accessor values.
     */
    struct Raw
    {
        std::uint64_t count = 0;
        double sum = 0.0;
        double min = 0.0;
        double max = 0.0;
    };

    Raw
    raw() const
    {
        return {_count, _sum, _min, _max};
    }

    static SampleStats
    fromRaw(const Raw &raw)
    {
        SampleStats s;
        s._count = raw.count;
        s._sum = raw.sum;
        s._min = raw.min;
        s._max = raw.max;
        return s;
    }

  private:
    std::uint64_t _count = 0;
    double _sum = 0.0;
    double _min = std::numeric_limits<double>::infinity();
    double _max = -std::numeric_limits<double>::infinity();
};

/**
 * Fixed-width histogram over [lo, hi); out-of-range samples land in
 * saturating underflow/overflow buckets.
 */
class Histogram
{
  public:
    /**
     * @param lo Inclusive lower bound of the tracked range.
     * @param hi Exclusive upper bound; must exceed @p lo.
     * @param num_bins Number of equal-width bins; must be non-zero.
     */
    Histogram(double lo, double hi, std::size_t num_bins);

    void sample(double value);
    void reset();

    /** Merge another histogram with identical binning. */
    void merge(const Histogram &other);

    std::uint64_t binCount(std::size_t bin) const { return bins.at(bin); }
    std::size_t numBins() const { return bins.size(); }
    std::uint64_t underflow() const { return _underflow; }
    std::uint64_t overflow() const { return _overflow; }
    std::uint64_t totalSamples() const { return total; }
    /** Center value of a bin. */
    double binCenter(std::size_t bin) const;
    /** Approximate p-quantile (0..1) from bin centers. */
    double quantile(double p) const;

  private:
    double lo;
    double hi;
    double width;
    std::vector<std::uint64_t> bins;
    std::uint64_t _underflow = 0;
    std::uint64_t _overflow = 0;
    std::uint64_t total = 0;
};

/**
 * Bytes-moved accumulator with start/stop windows; converts to GB/s.
 * Used for measuring bandwidth over the measurement phase only.
 */
class BandwidthMeter
{
  public:
    /** Begin a measurement window at @p now, discarding prior counts. */
    void
    start(Tick now)
    {
        startTick = now;
        bytes = 0;
        running = true;
    }

    /** End the measurement window at @p now. */
    void
    stop(Tick now)
    {
        stopTick = now;
        running = false;
    }

    /** Account @p n bytes if the window is open. */
    void
    add(Bytes n)
    {
        if (running)
            bytes += n;
    }

    Bytes totalBytes() const { return bytes; }
    Tick elapsed() const { return stopTick - startTick; }
    /** Average throughput over the window in GB/s. */
    double gbps() const;

  private:
    Tick startTick = 0;
    Tick stopTick = 0;
    Bytes bytes = 0;
    bool running = false;
};

} // namespace hmcsim

#endif // HMCSIM_SIM_STATS_HH
