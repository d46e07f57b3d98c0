/**
 * @file
 * Unit tests for the simulation kernel: event queue ordering, clock
 * domains, RNG determinism, and statistics primitives.
 */

#include <gtest/gtest.h>

#include <functional>
#include <vector>

#include "sim/clocked.hh"
#include "sim/event_queue.hh"
#include "sim/random.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace hmcsim
{
namespace
{

TEST(EventQueue, StartsAtTimeZero)
{
    EventQueue q;
    EXPECT_EQ(q.now(), 0u);
    EXPECT_EQ(q.pending(), 0u);
}

TEST(EventQueue, ExecutesInTimeOrder)
{
    EventQueue q;
    std::vector<int> order;
    q.schedule(30, [&] { order.push_back(3); });
    q.schedule(10, [&] { order.push_back(1); });
    q.schedule(20, [&] { order.push_back(2); });
    q.runToCompletion();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(q.now(), 30u);
}

TEST(EventQueue, SameTickIsFifo)
{
    EventQueue q;
    std::vector<int> order;
    for (int i = 0; i < 8; ++i)
        q.schedule(100, [&order, i] { order.push_back(i); });
    q.runToCompletion();
    for (int i = 0; i < 8; ++i)
        EXPECT_EQ(order[i], i);
}

TEST(EventQueue, RunUntilStopsAtLimit)
{
    EventQueue q;
    int fired = 0;
    q.schedule(10, [&] { ++fired; });
    q.schedule(20, [&] { ++fired; });
    q.schedule(30, [&] { ++fired; });
    q.runUntil(20);
    EXPECT_EQ(fired, 2);
    EXPECT_EQ(q.now(), 20u);
    EXPECT_EQ(q.pending(), 1u);
}

TEST(EventQueue, RunUntilAdvancesTimeWhenIdle)
{
    EventQueue q;
    q.runUntil(500);
    EXPECT_EQ(q.now(), 500u);
}

TEST(EventQueue, EventsCanScheduleEvents)
{
    EventQueue q;
    int count = 0;
    std::function<void()> chain = [&]() {
        ++count;
        if (count < 5)
            q.scheduleIn(10, [&] {
                ++count;
                if (count < 5)
                    q.scheduleIn(10, [&] { count = 5; });
            });
    };
    q.schedule(0, chain);
    q.runToCompletion();
    EXPECT_EQ(count, 5);
}

TEST(EventQueue, CountsExecutedEvents)
{
    EventQueue q;
    for (int i = 0; i < 17; ++i)
        q.schedule(i, [] {});
    q.runToCompletion();
    EXPECT_EQ(q.executed(), 17u);
}

TEST(EventQueue, ResetClearsState)
{
    EventQueue q;
    q.schedule(10, [] {});
    q.runToCompletion();
    q.reset();
    EXPECT_EQ(q.now(), 0u);
    EXPECT_EQ(q.pending(), 0u);
    EXPECT_EQ(q.executed(), 0u);
}

TEST(ClockDomain, FpgaClockIs187MHz)
{
    const ClockDomain clk = fpgaClock();
    EXPECT_NEAR(clk.frequencyHz(), 187.5e6, 0.5e6);
    EXPECT_EQ(clk.period(), 5333u);
}

TEST(ClockDomain, CyclesToTicks)
{
    const ClockDomain clk(1000);
    EXPECT_EQ(clk.cycles(5), 5000u);
    EXPECT_EQ(clk.cycleCount(5999), 5u);
}

TEST(ClockDomain, NextEdgeRoundsUp)
{
    const ClockDomain clk(1000);
    EXPECT_EQ(clk.nextEdgeAtOrAfter(0), 0u);
    EXPECT_EQ(clk.nextEdgeAtOrAfter(1), 1000u);
    EXPECT_EQ(clk.nextEdgeAtOrAfter(1000), 1000u);
    EXPECT_EQ(clk.nextEdgeAtOrAfter(1001), 2000u);
}

TEST(ClockDomain, FromFrequency)
{
    const ClockDomain clk = ClockDomain::fromFrequencyHz(1e9);
    EXPECT_EQ(clk.period(), 1000u);
}

TEST(TickConversion, RoundTrips)
{
    EXPECT_EQ(nsToTicks(1.0), tickNs);
    EXPECT_DOUBLE_EQ(ticksToNs(1500), 1.5);
    EXPECT_DOUBLE_EQ(ticksToUs(2 * tickUs), 2.0);
    EXPECT_DOUBLE_EQ(ticksToSeconds(tickS), 1.0);
}

TEST(TickConversion, BandwidthMath)
{
    // 1e9 bytes over one second = 1 GB/s.
    EXPECT_DOUBLE_EQ(toGBps(bytesPerSecond(1000000000ULL, tickS)), 1.0);
}

TEST(Random, Deterministic)
{
    Xoshiro256StarStar a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Random, DifferentSeedsDiffer)
{
    Xoshiro256StarStar a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += a.next() == b.next();
    EXPECT_LT(same, 2);
}

TEST(Random, BoundedStaysInRange)
{
    Xoshiro256StarStar rng(7);
    for (int i = 0; i < 10000; ++i)
        EXPECT_LT(rng.nextBounded(97), 97u);
}

TEST(Random, BoundedCoversRange)
{
    Xoshiro256StarStar rng(11);
    std::vector<int> histogram(8, 0);
    for (int i = 0; i < 8000; ++i)
        ++histogram[rng.nextBounded(8)];
    for (int count : histogram)
        EXPECT_GT(count, 800); // each bucket within ~20% of fair share
}

TEST(Random, DoubleInUnitInterval)
{
    Xoshiro256StarStar rng(3);
    for (int i = 0; i < 10000; ++i) {
        const double d = rng.nextDouble();
        EXPECT_GE(d, 0.0);
        EXPECT_LT(d, 1.0);
    }
}

TEST(SampleStats, EmptyIsZero)
{
    SampleStats s;
    EXPECT_EQ(s.count(), 0u);
    EXPECT_DOUBLE_EQ(s.mean(), 0.0);
    EXPECT_DOUBLE_EQ(s.min(), 0.0);
    EXPECT_DOUBLE_EQ(s.max(), 0.0);
}

TEST(SampleStats, BasicMoments)
{
    SampleStats s;
    for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
        s.sample(v);
    EXPECT_EQ(s.count(), 8u);
    EXPECT_DOUBLE_EQ(s.mean(), 5.0);
    EXPECT_DOUBLE_EQ(s.min(), 2.0);
    EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(SampleStats, MergeMatchesCombined)
{
    SampleStats a, b, all;
    for (int i = 0; i < 50; ++i) {
        const double v = i * 0.77;
        (i % 2 ? a : b).sample(v);
        all.sample(v);
    }
    a.merge(b);
    EXPECT_EQ(a.count(), all.count());
    EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
    EXPECT_DOUBLE_EQ(a.min(), all.min());
    EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(SampleStats, MergeWithEmpty)
{
    SampleStats a, empty;
    a.sample(3.0);
    a.merge(empty);
    EXPECT_EQ(a.count(), 1u);
    empty.merge(a);
    EXPECT_EQ(empty.count(), 1u);
    EXPECT_DOUBLE_EQ(empty.mean(), 3.0);
}

TEST(Histogram, BinsAndBounds)
{
    Histogram h(0.0, 10.0, 10);
    h.sample(-1.0);
    h.sample(0.0);
    h.sample(5.5);
    h.sample(9.999);
    h.sample(10.0);
    EXPECT_EQ(h.underflow(), 1u);
    EXPECT_EQ(h.overflow(), 1u);
    EXPECT_EQ(h.binCount(0), 1u);
    EXPECT_EQ(h.binCount(5), 1u);
    EXPECT_EQ(h.binCount(9), 1u);
    EXPECT_EQ(h.totalSamples(), 5u);
}

TEST(Histogram, QuantileApproximation)
{
    Histogram h(0.0, 100.0, 100);
    for (int i = 0; i < 100; ++i)
        h.sample(i + 0.5);
    EXPECT_NEAR(h.quantile(0.5), 50.0, 1.5);
    EXPECT_NEAR(h.quantile(0.9), 90.0, 1.5);
}

TEST(Histogram, MergeCombinesCounts)
{
    Histogram a(0.0, 10.0, 10), b(0.0, 10.0, 10);
    a.sample(1.0);
    b.sample(1.5);
    b.sample(9.5);
    b.sample(-1.0);
    a.merge(b);
    EXPECT_EQ(a.totalSamples(), 4u);
    EXPECT_EQ(a.binCount(1), 2u);
    EXPECT_EQ(a.binCount(9), 1u);
    EXPECT_EQ(a.underflow(), 1u);
}

TEST(Histogram, MergeRejectsDifferentBinning)
{
    Histogram a(0.0, 10.0, 10), b(0.0, 20.0, 10);
    EXPECT_DEATH(a.merge(b), "different binning");
}

TEST(Histogram, EveryBinEdgeTickLandsInItsBin)
{
    // The GUPS read-latency shape (100 ns bins over [0, 100 us)), fed
    // each bin edge k * 100 ns and one tick either side, converted
    // with ticksToNs as the port does: the edge and the tick above it
    // land in bin k, the tick below in bin k - 1, and from 100 us on
    // in overflow.
    Histogram h(0.0, 100000.0, 1000);
    const auto expectBin = [&h](Tick t, std::size_t bin) {
        h.reset();
        h.sample(ticksToNs(t));
        EXPECT_EQ(h.binCount(bin), 1u) << "tick " << t;
    };
    const auto expectOverflow = [&h](Tick t) {
        h.reset();
        h.sample(ticksToNs(t));
        EXPECT_EQ(h.overflow(), 1u) << "tick " << t;
    };
    expectBin(0, 0);
    expectBin(1, 0);
    for (std::size_t k = 1; k < 1000; ++k) {
        const Tick edge = k * 100000;
        expectBin(edge - 1, k - 1);
        expectBin(edge, k);
        expectBin(edge + 1, k);
    }
    expectBin(100000000 - 1, 999);
    expectOverflow(100000000);
    expectOverflow(100000000 + 1);
}

TEST(BandwidthMeter, MeasuresWindowOnly)
{
    BandwidthMeter m;
    m.add(1000); // before start: ignored
    m.start(0);
    m.add(500);
    m.stop(tickS);
    m.add(500); // after stop: ignored
    EXPECT_EQ(m.totalBytes(), 500u);
    EXPECT_NEAR(m.gbps(), 500.0 / 1e9, 1e-12);
}

} // namespace
} // namespace hmcsim
