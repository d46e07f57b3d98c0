/**
 * @file
 * Tests for the fleet traffic service (src/service/, docs/service.md):
 *
 *  - arrival streams are pure functions of (config, seed): identical
 *    draws on re-generation, decorrelated under seed or config
 *    changes, non-decreasing always;
 *  - Poisson and MMPP empirical rates match the configured rates
 *    within statistical tolerance, and MMPP at equal rates degenerates
 *    to Poisson exactly;
 *  - the diurnal trace text form round-trips bit-identically
 *    (format -> parse -> format);
 *  - routing is a pure function (shard stability): a key's node never
 *    depends on fleet traffic around it;
 *  - the shared nearest-rank quantile helper is bit-identical to the
 *    loop Histogram::quantile used before the extraction, and
 *    TickQuantiles answers are merge-order independent;
 *  - a 4-node fleet run is byte-identical at --jobs 1 and --jobs 8:
 *    same per-node digests, same aggregate digest, same JSONL bytes.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "service/arrival.hh"
#include "service/fleet.hh"
#include "service/service_stats.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

using namespace hmcsim;

namespace
{

std::vector<Tick>
drawStream(const ArrivalConfig &cfg, std::uint64_t seed, std::size_t n)
{
    const std::unique_ptr<ArrivalModel> model =
        makeArrivalModel(cfg, deriveStreamSeed(seed, cfg));
    std::vector<Tick> out;
    out.reserve(n);
    for (std::size_t i = 0; i < n; ++i)
        out.push_back(model->next());
    return out;
}

/** Empirical mean arrival rate of a stream, in arrivals/second. */
double
empiricalRate(const std::vector<Tick> &stream)
{
    EXPECT_GE(stream.size(), 2u);
    const Tick span = stream.back() - stream.front();
    EXPECT_GT(span, 0u);
    return static_cast<double>(stream.size() - 1) /
           ticksToSeconds(span);
}

} // namespace

// ---------------------------------------------------------------------
// Arrival streams: determinism and statistics.
// ---------------------------------------------------------------------

TEST(Arrival, StreamIsDeterministicPerSeed)
{
    ArrivalConfig cfg;
    cfg.ratePerSec = 1e6;
    const std::vector<Tick> a = drawStream(cfg, 42, 5000);
    const std::vector<Tick> b = drawStream(cfg, 42, 5000);
    EXPECT_EQ(a, b);

    const std::vector<Tick> c = drawStream(cfg, 43, 5000);
    EXPECT_NE(a, c);
}

TEST(Arrival, StreamSeedIsContentAddressed)
{
    ArrivalConfig poisson;
    ArrivalConfig faster = poisson;
    faster.ratePerSec *= 2.0;
    // Same campaign seed, different config -> different stream seed.
    EXPECT_NE(deriveStreamSeed(7, poisson), deriveStreamSeed(7, faster));
    // And the derived seed is never the degenerate 0.
    EXPECT_NE(deriveStreamSeed(7, poisson), 0u);

    ArrivalConfig mmpp = poisson;
    mmpp.kind = ArrivalKind::Mmpp;
    EXPECT_NE(arrivalConfigDigest(poisson), arrivalConfigDigest(mmpp));
}

TEST(Arrival, ArrivalsAreNonDecreasing)
{
    for (const ArrivalKind kind :
         {ArrivalKind::Poisson, ArrivalKind::Mmpp, ArrivalKind::Diurnal}) {
        ArrivalConfig cfg;
        cfg.kind = kind;
        cfg.ratePerSec = 5e6;
        cfg.trace = {{100 * tickUs, 1.0}, {50 * tickUs, 0.25}};
        const std::vector<Tick> stream = drawStream(cfg, 1, 20000);
        for (std::size_t i = 1; i < stream.size(); ++i)
            ASSERT_GE(stream[i], stream[i - 1]) << "at index " << i;
    }
}

TEST(Arrival, PoissonEmpiricalRateMatchesConfig)
{
    ArrivalConfig cfg;
    cfg.ratePerSec = 2e6;
    const std::vector<Tick> stream = drawStream(cfg, 11, 100000);
    // Relative error of the mean gap over n exponential draws is
    // ~1/sqrt(n) = 0.3%; 2% absorbs the tick rounding as well.
    EXPECT_NEAR(empiricalRate(stream) / cfg.ratePerSec, 1.0, 0.02);
}

TEST(Arrival, MmppEmpiricalRateMatchesTimeWeightedMean)
{
    ArrivalConfig cfg;
    cfg.kind = ArrivalKind::Mmpp;
    cfg.ratePerSec = 1e6;
    cfg.burstRatePerSec = 8e6;
    cfg.meanCalmTicks = 50 * tickUs;
    cfg.meanBurstTicks = 10 * tickUs;
    const std::vector<Tick> stream = drawStream(cfg, 3, 200000);
    // Long-run mean rate = time-weighted average of the two states.
    const double calm = ticksToSeconds(cfg.meanCalmTicks);
    const double burst = ticksToSeconds(cfg.meanBurstTicks);
    const double expected =
        (cfg.ratePerSec * calm + cfg.burstRatePerSec * burst) /
        (calm + burst);
    // Dwell-time variance dominates; 200k arrivals span ~hundreds of
    // calm/burst cycles, so 10% is a comfortable 3-sigma bound.
    EXPECT_NEAR(empiricalRate(stream) / expected, 1.0, 0.10);
}

TEST(Arrival, MmppBurstsDetachTailFromPoisson)
{
    // The burst state must actually concentrate arrivals: the minimum
    // observed gap under MMPP at 8x burst rate is smaller than the
    // Poisson mean gap at the calm rate.
    ArrivalConfig cfg;
    cfg.kind = ArrivalKind::Mmpp;
    cfg.ratePerSec = 1e6;
    cfg.burstRatePerSec = 8e6;
    const std::vector<Tick> stream = drawStream(cfg, 9, 50000);
    Tick minGap = maxTick;
    for (std::size_t i = 1; i < stream.size(); ++i)
        minGap = std::min(minGap, stream[i] - stream[i - 1]);
    const Tick calmMeanGap =
        static_cast<Tick>(static_cast<double>(tickS) / cfg.ratePerSec);
    EXPECT_LT(minGap, calmMeanGap / 4);
}

TEST(Arrival, DiurnalEmpiricalRateMatchesTraceAverage)
{
    ArrivalConfig cfg;
    cfg.kind = ArrivalKind::Diurnal;
    cfg.ratePerSec = 4e6;
    cfg.trace = {{100 * tickUs, 1.0}, {100 * tickUs, 0.5}};
    const std::vector<Tick> stream = drawStream(cfg, 5, 100000);
    const double expected = cfg.ratePerSec * 0.75;
    EXPECT_NEAR(empiricalRate(stream) / expected, 1.0, 0.05);
}

TEST(Arrival, DiurnalTraceTextRoundTripsBitIdentically)
{
    std::vector<DiurnalSegment> trace = {
        {100 * tickUs, 1.0},
        {50 * tickUs, 0.3333333333333333},
        {1, 7.25e-3},
    };
    const std::string text = formatDiurnalTrace(trace);
    std::vector<DiurnalSegment> parsed;
    ASSERT_TRUE(parseDiurnalTrace(text, parsed));
    ASSERT_EQ(parsed.size(), trace.size());
    for (std::size_t i = 0; i < trace.size(); ++i) {
        EXPECT_EQ(parsed[i].duration, trace[i].duration);
        // Bit-identity, not approximate equality: %a hexfloat.
        EXPECT_EQ(parsed[i].rateScale, trace[i].rateScale);
    }
    EXPECT_EQ(formatDiurnalTrace(parsed), text);
}

TEST(Arrival, DiurnalTraceParserRejectsMalformedInput)
{
    std::vector<DiurnalSegment> out;
    EXPECT_FALSE(parseDiurnalTrace("", out));
    EXPECT_FALSE(parseDiurnalTrace("100", out));
    EXPECT_FALSE(parseDiurnalTrace("0:1.0", out));
    EXPECT_FALSE(parseDiurnalTrace("100:-1.0", out));
    EXPECT_FALSE(parseDiurnalTrace("100:1.0junk", out));
    // A sign once wrapped the duration to ~2^64 ticks.
    EXPECT_FALSE(parseDiurnalTrace("-100:1.0", out));
    EXPECT_FALSE(parseDiurnalTrace("100:+1.0", out));
    EXPECT_FALSE(parseDiurnalTrace("100: 1.0", out));
    EXPECT_FALSE(parseDiurnalTrace("100:inf", out));
    EXPECT_FALSE(parseDiurnalTrace("100:0x1p9999", out));
    // Durations read like every other key number: no leading zero,
    // and no empty segment after a comma.
    EXPECT_FALSE(parseDiurnalTrace("0100:1.0", out));
    EXPECT_FALSE(parseDiurnalTrace("100:1.0,", out));
    EXPECT_FALSE(parseDiurnalTrace("100:1.0,,200:1.0", out));
    // Hand-written decimal scales are accepted.
    EXPECT_TRUE(parseDiurnalTrace("100:1.5,200:0.5", out));
    ASSERT_EQ(out.size(), 2u);
    EXPECT_EQ(out[0].duration, 100u);
    EXPECT_EQ(out[0].rateScale, 1.5);
}

TEST(Arrival, NegLogUnitMatchesLibmClosely)
{
    // negLogUnit exists for cross-platform bit-identity, but it must
    // still be an accurate -log: compare against libm over a sweep.
    EXPECT_EQ(negLogUnit(1.0), 0.0);
    double u = 1.0;
    for (int i = 0; i < 200; ++i) {
        u *= 0.93;
        const double got = negLogUnit(u);
        const double want = -std::log(u);
        EXPECT_NEAR(got, want, want * 1e-12 + 1e-12) << "u=" << u;
    }
}

// ---------------------------------------------------------------------
// Routing: pure-function shard stability.
// ---------------------------------------------------------------------

TEST(Router, KeyedRoutingIsShardStable)
{
    // A key's node is a pure function of (key, fleet size): no other
    // request, ordinal, or call history can move it.
    for (std::uint64_t key = 0; key < 512; ++key) {
        const unsigned first =
            routeRequest(RouterPolicy::Keyed, 8, 0.0, key, 0);
        const unsigned again =
            routeRequest(RouterPolicy::Keyed, 8, 0.0, key, 99999);
        EXPECT_EQ(first, again) << "key " << key;
        EXPECT_LT(first, 8u);
    }
}

TEST(Router, UniformRoutingCoversAllNodes)
{
    std::vector<std::uint64_t> counts(8, 0);
    for (std::uint64_t i = 0; i < 8000; ++i)
        ++counts[routeRequest(RouterPolicy::Uniform, 8, 0.0, 0, i)];
    for (unsigned n = 0; n < 8; ++n) {
        // Expected 1000 per node; 3-sigma of binomial(8000, 1/8) ~ 89.
        EXPECT_GT(counts[n], 700u) << "node " << n;
        EXPECT_LT(counts[n], 1300u) << "node " << n;
    }
}

TEST(Router, HotSpotPinsTheConfiguredFraction)
{
    std::uint64_t hot = 0;
    const std::uint64_t total = 20000;
    for (std::uint64_t i = 0; i < total; ++i)
        hot += routeRequest(RouterPolicy::HotSpot, 8, 0.5, 0, i) == 0;
    // Node 0 gets the pinned 50% plus 1/8 of the spread half ~ 56%.
    const double share =
        static_cast<double>(hot) / static_cast<double>(total);
    EXPECT_NEAR(share, 0.5 + 0.5 / 8.0, 0.03);
}

TEST(Router, SingleNodeFleetTakesEverything)
{
    for (const RouterPolicy policy :
         {RouterPolicy::Uniform, RouterPolicy::Keyed,
          RouterPolicy::HotSpot})
        EXPECT_EQ(routeRequest(policy, 1, 0.25, 123, 456), 0u);
}

// ---------------------------------------------------------------------
// Shared quantile helper: migration bit-identity.
// ---------------------------------------------------------------------

namespace
{

/** The pre-extraction Histogram::quantile, verbatim: walk bins until
 *  the cumulative count exceeds floor(p * total). */
double
legacyHistogramQuantile(const Histogram &h, double lo, double hi,
                        double p)
{
    if (h.totalSamples() == 0)
        return 0.0;
    const std::uint64_t target = static_cast<std::uint64_t>(
        p * static_cast<double>(h.totalSamples()));
    std::uint64_t seen = h.underflow();
    if (seen > target)
        return lo;
    for (std::size_t i = 0; i < h.numBins(); ++i) {
        seen += h.binCount(i);
        if (seen > target)
            return h.binCenter(i);
    }
    return hi;
}

} // namespace

TEST(Quantiles, HistogramQuantileMatchesLegacyLoopBitExactly)
{
    Histogram h(0.0, 1000.0, 64);
    std::uint64_t x = 0x243f6a8885a308d3ULL;
    for (int i = 0; i < 10000; ++i)
        h.sample(static_cast<double>(splitMix64(x) % 1100));
    for (const double p : {0.0, 0.01, 0.5, 0.9, 0.99, 0.999, 1.0}) {
        const double got = h.quantile(p);
        const double want = legacyHistogramQuantile(h, 0.0, 1000.0, p);
        // Bit-exact: the extraction must not have changed a single
        // returned value.
        EXPECT_EQ(got, want) << "p=" << p;
    }
}

TEST(Quantiles, TickQuantilesNamesTheNearestRankSample)
{
    TickQuantiles q;
    // Samples 100, 200, ..., 1000 inserted out of order.
    for (const Tick t : {700, 100, 1000, 300, 900, 200, 500, 400, 800,
                         600})
        q.add(static_cast<Tick>(t));
    ASSERT_EQ(q.count(), 10u);
    // rank floor(0.5 * 10) = 5 -> sixth smallest = 600.
    EXPECT_EQ(q.quantileTicks(0.5), 600u);
    // rank floor(0.99 * 10) = 9 -> largest.
    EXPECT_EQ(q.quantileTicks(0.99), 1000u);
    EXPECT_EQ(q.maxTicks(), 1000u);
    // Ranks clamp to the largest sample.
    EXPECT_EQ(q.quantileTicks(1.0), 1000u);
    // Empty accumulator answers 0.
    EXPECT_EQ(TickQuantiles().quantileTicks(0.5), 0u);
}

TEST(Quantiles, DigestAndAnswersAreMergeOrderIndependent)
{
    std::uint64_t x = 0x13198a2e03707344ULL;
    TickQuantiles whole, partA, partB;
    for (int i = 0; i < 5000; ++i) {
        const Tick t = splitMix64(x) % 1000000;
        whole.add(t);
        (i % 3 ? partA : partB).add(t);
    }
    TickQuantiles mergedAB = partA;
    mergedAB.merge(partB);
    TickQuantiles mergedBA = partB;
    mergedBA.merge(partA);
    EXPECT_EQ(mergedAB.digest(), whole.digest());
    EXPECT_EQ(mergedBA.digest(), whole.digest());
    EXPECT_EQ(mergedAB.quantileTicks(0.999), whole.quantileTicks(0.999));
    EXPECT_EQ(mergedBA.quantileTicks(0.999), whole.quantileTicks(0.999));
}

TEST(Quantiles, ServiceStatsMergeIsOrderIndependent)
{
    ServiceStats a, b;
    a.record(100, 600);
    a.record(200, 900);
    b.record(50, 1000);
    ServiceStats ab = a;
    ab.merge(b);
    ServiceStats ba = b;
    ba.merge(a);
    EXPECT_EQ(ab.digest(), ba.digest());
    EXPECT_EQ(ab.requests, 3u);
    EXPECT_EQ(ab.firstArrival, 50u);
    EXPECT_EQ(ab.lastCompletion, 1000u);
    EXPECT_EQ(ab.sumSojournTicks, 500u + 700u + 950u);
}

// ---------------------------------------------------------------------
// Fleet determinism: --jobs 1 vs --jobs 8 byte identity.
// ---------------------------------------------------------------------

namespace
{

FleetConfig
smallFleetConfig()
{
    FleetConfig cfg;
    cfg.numNodes = 4;
    cfg.requests = 4000;
    cfg.arrival.kind = ArrivalKind::Mmpp;
    cfg.arrival.ratePerSec = 1e6;
    cfg.arrival.burstRatePerSec = 4e6;
    cfg.router = RouterPolicy::Keyed;
    cfg.seed = 12345;
    return cfg;
}

} // namespace

TEST(Fleet, JobsOneAndJobsEightAreByteIdentical)
{
    FleetConfig serial = smallFleetConfig();
    serial.jobs = 1;
    FleetConfig parallel = smallFleetConfig();
    parallel.jobs = 8;

    const FleetResult a = runFleet(serial);
    const FleetResult b = runFleet(parallel);

    ASSERT_EQ(a.nodes.size(), b.nodes.size());
    for (std::size_t n = 0; n < a.nodes.size(); ++n) {
        EXPECT_EQ(a.nodes[n].digest(), b.nodes[n].digest())
            << "node " << n;
        // The streamed JSONL bytes, not just the digests.
        EXPECT_EQ(serviceNodeJsonl(static_cast<unsigned>(n), a.nodes[n]),
                  serviceNodeJsonl(static_cast<unsigned>(n), b.nodes[n]));
    }
    EXPECT_EQ(a.aggregate.digest(), b.aggregate.digest());
    EXPECT_EQ(serviceAggregateJsonl(4, a.aggregate),
              serviceAggregateJsonl(4, b.aggregate));
    // The fleet actually served the whole stream.
    EXPECT_EQ(a.aggregate.requests, serial.requests);
    EXPECT_GT(a.aggregate.throughputMrps(), 0.0);
    EXPECT_GT(a.aggregate.sojournP999Ns(),
              a.aggregate.sojournP50Ns() * 0.999);
}

TEST(Fleet, NodeSeedsAreContentAddressedAndDistinct)
{
    const FleetConfig cfg = smallFleetConfig();
    for (unsigned n = 0; n < 4; ++n) {
        EXPECT_NE(fleetNodeSeed(cfg, n), 0u);
        for (unsigned m = n + 1; m < 4; ++m)
            EXPECT_NE(fleetNodeSeed(cfg, n), fleetNodeSeed(cfg, m));
    }
    FleetConfig other = cfg;
    other.arrival.ratePerSec *= 2.0;
    EXPECT_NE(fleetNodeSeed(cfg, 0), fleetNodeSeed(other, 0));
}

TEST(Fleet, GeneratedStreamRespectsRouterAndArrivalOrder)
{
    FleetConfig cfg = smallFleetConfig();
    cfg.requests = 2000;
    const std::vector<FleetRequest> stream = generateFleetRequests(cfg);
    ASSERT_EQ(stream.size(), cfg.requests);
    for (std::size_t i = 0; i < stream.size(); ++i) {
        if (i) {
            EXPECT_GE(stream[i].arrival, stream[i - 1].arrival);
        }
        EXPECT_LT(stream[i].node, cfg.numNodes);
        EXPECT_LT(stream[i].key, cfg.numKeys);
        // Routing re-derives to the same node: shard stability.
        EXPECT_EQ(stream[i].node,
                  routeRequest(cfg.router, cfg.numNodes, cfg.hotFraction,
                               stream[i].key, i));
    }
}
