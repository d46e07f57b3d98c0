/**
 * @file
 * Bit-identity and allocation tests for the batched latency-stats
 * flush (TickLatencyBatch) and the windowed GUPS address issue:
 *
 *  - every digest-observable field (count, sum, min, max, mean, all
 *    histogram bins, underflow/overflow/total) must be bit-identical
 *    between the per-sample path and the buffered flush, including at
 *    exact bin boundaries and for histograms that reject the integer
 *    tick plan;
 *  - variance is chunk-combined (Chan et al.), so it is numerically
 *    equal, not bit-equal (docs/performance.md);
 *  - %a hexfloat formatting of the flushed sum/mean round-trips to
 *    the same bits (the structured sinks print doubles this way);
 *  - the steady-state flush and the issue-window refill perform zero
 *    heap allocations (counting operator new, as in
 *    test_event_queue.cc).
 */

#include <gtest/gtest.h>

#include <cstdlib>

// GCC pairs the replaced operator new with the library operator
// delete across inlining and misreports the malloc/free replacement
// pattern below as mismatched.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif
#include <cstdio>
#include <cstring>
#include <new>
#include <vector>

#include "gups/address_generator.hh"
#include "sim/random.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

// ---------------------------------------------------------------------
// Global allocation counter: every operator new in this binary is
// counted so tests can assert that a steady-state region performs no
// heap allocation at all. Single-threaded by the test contract.
// ---------------------------------------------------------------------

namespace
{
std::size_t g_allocations = 0;
}

void *
operator new(std::size_t size)
{
    ++g_allocations;
    if (void *p = std::malloc(size))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t size)
{
    ++g_allocations;
    if (void *p = std::malloc(size))
        return p;
    throw std::bad_alloc();
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}

namespace hmcsim
{
namespace
{

std::uint64_t
bitsOf(double v)
{
    std::uint64_t u;
    std::memcpy(&u, &v, sizeof(u));
    return u;
}

/** The GUPS read-latency histogram shape: 1000 bins of 100 ns over
 *  [0, 100000) -- bin width 100000 ticks, eligible for the integer
 *  tick plan. */
Histogram
gupsShapedHistogram()
{
    return Histogram(0.0, 100000.0, 1000);
}

/** A latency stream mixing random ticks with every boundary hazard:
 *  exact bin edges, one tick either side, zero, and ticks beyond the
 *  histogram range (overflow bucket). */
std::vector<Tick>
hazardStream(std::size_t random_count, std::uint64_t seed)
{
    std::vector<Tick> ticks;
    ticks.push_back(0);
    for (std::uint64_t k = 1; k <= 1000; k += 97) {
        ticks.push_back(k * 100000);
        ticks.push_back(k * 100000 - 1);
        ticks.push_back(k * 100000 + 1);
    }
    ticks.push_back(100000000);     // == hi: first overflow tick
    ticks.push_back(100000000 - 1); // last in-range tick
    ticks.push_back(130000000);     // deep overflow
    Xoshiro256StarStar rng(seed);
    for (std::size_t i = 0; i < random_count; ++i)
        ticks.push_back(rng.nextBounded(130000000));
    return ticks;
}

struct Accumulated
{
    SampleStats stats;
    Histogram hist = gupsShapedHistogram();
};

/** Reference: the pre-batching per-sample path. */
Accumulated
perSample(const std::vector<Tick> &ticks)
{
    Accumulated a;
    for (const Tick t : ticks) {
        const double v = ticksToNs(t);
        a.stats.sample(v);
        a.hist.sample(v);
    }
    return a;
}

/** Shipping path: buffer ticks, flush on full and once at the end. */
Accumulated
batched(const std::vector<Tick> &ticks)
{
    Accumulated a;
    TickLatencyBatch batch;
    for (const Tick t : ticks) {
        if (batch.push(t))
            batch.flushInto(a.stats, &a.hist);
    }
    batch.flushInto(a.stats, &a.hist);
    return a;
}

void
expectPinnedFieldsIdentical(const Accumulated &ref, const Accumulated &got)
{
    EXPECT_EQ(ref.stats.count(), got.stats.count());
    EXPECT_EQ(bitsOf(ref.stats.sum()), bitsOf(got.stats.sum()));
    EXPECT_EQ(bitsOf(ref.stats.mean()), bitsOf(got.stats.mean()));
    EXPECT_EQ(bitsOf(ref.stats.min()), bitsOf(got.stats.min()));
    EXPECT_EQ(bitsOf(ref.stats.max()), bitsOf(got.stats.max()));
    EXPECT_EQ(ref.hist.totalSamples(), got.hist.totalSamples());
    EXPECT_EQ(ref.hist.underflow(), got.hist.underflow());
    EXPECT_EQ(ref.hist.overflow(), got.hist.overflow());
    for (std::size_t b = 0; b < ref.hist.numBins(); ++b)
        ASSERT_EQ(ref.hist.binCount(b), got.hist.binCount(b)) << "bin " << b;
}

TEST(StatsBatch, PinnedFieldsBitIdentical)
{
    const std::vector<Tick> ticks = hazardStream(20000, 0x5EED);
    expectPinnedFieldsIdentical(perSample(ticks), batched(ticks));
}

TEST(StatsBatch, EveryBoundaryTickBinsIdentically)
{
    // All 1000 bin edges and their neighbours, no randomness: the
    // reciprocal-multiply bin(t) must match floating-point binning on
    // each exact edge.
    std::vector<Tick> ticks;
    for (std::uint64_t k = 0; k <= 1000; ++k)
        for (const std::int64_t d : {-1, 0, 1})
            if (static_cast<std::int64_t>(k * 100000) + d >= 0)
                ticks.push_back(k * 100000 + static_cast<std::uint64_t>(d));
    expectPinnedFieldsIdentical(perSample(ticks), batched(ticks));
}

TEST(StatsBatch, PartialAndInterleavedFlushes)
{
    // Two streams (read/write) interleaved irregularly, with flushes
    // landing at many different partial fill levels.
    const std::vector<Tick> ticks = hazardStream(5000, 0xFEED);
    Accumulated refA;
    Accumulated refB;
    Accumulated gotA;
    Accumulated gotB;
    TickLatencyBatch batchA;
    TickLatencyBatch batchB;
    Xoshiro256StarStar pick(7);
    for (const Tick t : ticks) {
        const double v = ticksToNs(t);
        if (pick.nextBounded(3) != 0) {
            refA.stats.sample(v);
            refA.hist.sample(v);
            if (batchA.push(t))
                batchA.flushInto(gotA.stats, &gotA.hist);
            // Stat reads mid-run force partial flushes.
            if (pick.nextBounded(64) == 0)
                batchA.flushInto(gotA.stats, &gotA.hist);
        } else {
            refB.stats.sample(v);
            refB.hist.sample(v);
            if (batchB.push(t))
                batchB.flushInto(gotB.stats, &gotB.hist);
        }
    }
    batchA.flushInto(gotA.stats, &gotA.hist);
    batchB.flushInto(gotB.stats, &gotB.hist);
    expectPinnedFieldsIdentical(refA, gotA);
    expectPinnedFieldsIdentical(refB, gotB);
}

TEST(StatsBatch, FlushWithoutHistogram)
{
    const std::vector<Tick> ticks = hazardStream(3000, 0xABC);
    SampleStats ref;
    for (const Tick t : ticks)
        ref.sample(ticksToNs(t));
    SampleStats got;
    TickLatencyBatch batch;
    for (const Tick t : ticks) {
        if (batch.push(t))
            batch.flushInto(got);
    }
    batch.flushInto(got);
    EXPECT_EQ(ref.count(), got.count());
    EXPECT_EQ(bitsOf(ref.sum()), bitsOf(got.sum()));
    EXPECT_EQ(bitsOf(ref.min()), bitsOf(got.min()));
    EXPECT_EQ(bitsOf(ref.max()), bitsOf(got.max()));
}

TEST(StatsBatch, PlanRejectedHistogramStaysIdentical)
{
    // Width 99.7 ns is not a whole multiple of 125 ps, so the tick
    // plan must be rejected and the flush must fall back to the
    // per-sample floating-point probe -- still bit-identical.
    const std::vector<Tick> ticks = hazardStream(4000, 0xDEF);
    SampleStats ref_stats;
    Histogram ref_hist(0.0, 997.0, 10);
    for (const Tick t : ticks) {
        const double v = ticksToNs(t);
        ref_stats.sample(v);
        ref_hist.sample(v);
    }
    SampleStats got_stats;
    Histogram got_hist(0.0, 997.0, 10);
    TickLatencyBatch batch;
    for (const Tick t : ticks) {
        if (batch.push(t))
            batch.flushInto(got_stats, &got_hist);
    }
    batch.flushInto(got_stats, &got_hist);
    EXPECT_EQ(bitsOf(ref_stats.sum()), bitsOf(got_stats.sum()));
    EXPECT_EQ(ref_hist.overflow(), got_hist.overflow());
    for (std::size_t b = 0; b < ref_hist.numBins(); ++b)
        ASSERT_EQ(ref_hist.binCount(b), got_hist.binCount(b)) << "bin " << b;
}

TEST(StatsBatch, VarianceChunkCombineIsNumericallyEqual)
{
    const std::vector<Tick> ticks = hazardStream(20000, 0x42);
    const Accumulated ref = perSample(ticks);
    const Accumulated got = batched(ticks);
    ASSERT_GT(ref.stats.variance(), 0.0);
    EXPECT_NEAR(got.stats.variance(), ref.stats.variance(),
                ref.stats.variance() * 1e-9);
    EXPECT_NEAR(got.stats.stddev(), ref.stats.stddev(),
                ref.stats.stddev() * 1e-9);
}

TEST(StatsBatch, HexfloatRoundTripPreservesFlushedBits)
{
    // The structured sinks serialize doubles with %a; a flushed sum
    // and mean must survive the print/parse round trip bit-exactly.
    const std::vector<Tick> ticks = hazardStream(10000, 0x77);
    const Accumulated got = batched(ticks);
    for (const double v : {got.stats.sum(), got.stats.mean(),
                           got.stats.min(), got.stats.max()}) {
        char text[64];
        std::snprintf(text, sizeof(text), "%a", v);
        double parsed = 0.0;
        ASSERT_EQ(std::sscanf(text, "%la", &parsed), 1);
        EXPECT_EQ(bitsOf(v), bitsOf(parsed)) << text;
    }
}

TEST(StatsBatch, ClearDropsBufferedSamples)
{
    SampleStats stats;
    TickLatencyBatch batch;
    batch.push(123456);
    batch.push(654321);
    EXPECT_EQ(batch.size(), 2u);
    batch.clear();
    EXPECT_TRUE(batch.empty());
    batch.flushInto(stats);
    EXPECT_EQ(stats.count(), 0u);
}

// ---------------------------------------------------------------------
// Zero-allocation guards: the per-packet steady state must never
// touch the heap (ISSUE: operator-new-counting guards extended to the
// stats flush and the GUPS issue window).
// ---------------------------------------------------------------------

TEST(StatsBatch, FlushIsAllocationFree)
{
    SampleStats stats;
    Histogram hist = gupsShapedHistogram();
    TickLatencyBatch batch;
    Xoshiro256StarStar rng(31);

    const std::size_t before = g_allocations;
    for (int round = 0; round < 8; ++round) {
        for (std::size_t i = 0; i < TickLatencyBatch::capacity; ++i) {
            if (batch.push(rng.nextBounded(130000000)))
                batch.flushInto(stats, &hist);
        }
        batch.flushInto(stats, &hist);
    }
    EXPECT_EQ(g_allocations, before);
    EXPECT_EQ(stats.count(), 8u * TickLatencyBatch::capacity);
}

TEST(StatsBatch, IssueWindowRefillIsAllocationFree)
{
    AddressGeneratorConfig cfg;
    cfg.mode = AddressingMode::Random;
    cfg.requestSize = 128;
    cfg.capacity = 4 * gib;
    AddressGenerator gen(cfg, 0x1234);

    Addr window[32];
    const std::size_t before = g_allocations;
    for (int refill = 0; refill < 64; ++refill) {
        gen.fill(window, 32);
        for (const Addr a : window)
            ASSERT_LT(a, cfg.capacity);
    }
    EXPECT_EQ(g_allocations, before);

    cfg.mode = AddressingMode::Linear;
    AddressGenerator lin(cfg, 0x1234);
    const std::size_t before_linear = g_allocations;
    for (int refill = 0; refill < 64; ++refill)
        lin.fill(window, 32);
    EXPECT_EQ(g_allocations, before_linear);
}

TEST(StatsBatch, WindowedFillMatchesPerCallStream)
{
    // The refill must consume the RNG exactly as 32 next() calls
    // would: a windowed port and a per-call port see the same stream.
    AddressGeneratorConfig cfg;
    cfg.mode = AddressingMode::Random;
    cfg.requestSize = 128;
    cfg.capacity = 4 * gib;
    AddressGenerator per_call(cfg, 0x9999);
    AddressGenerator windowed(cfg, 0x9999);
    Addr window[32];
    for (int refill = 0; refill < 16; ++refill) {
        windowed.fill(window, 32);
        for (const Addr a : window)
            ASSERT_EQ(a, per_call.next());
    }
}

} // namespace
} // namespace hmcsim
