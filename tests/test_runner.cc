/**
 * @file
 * Tests for the parallel sweep orchestration subsystem (src/runner/):
 * thread-pool execution and exception propagation, config-digest
 * stability/sensitivity, result-cache hit/miss/eviction and store
 * round trips, and the headline determinism contract -- a 12-point
 * sweep at --jobs 1 and --jobs 8 produces bit-identical
 * MeasurementResult values and identical StatRegistry digests.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <limits>
#include <set>
#include <stdexcept>

#include "dist/store.hh"
#include "runner/config_digest.hh"
#include "runner/result_cache.hh"
#include "runner/sink.hh"
#include "runner/sweep.hh"
#include "runner/thread_pool.hh"
#include "sim/random.hh"

namespace
{

using namespace hmcsim;

// ---------------------------------------------------------------------
// ThreadPool
// ---------------------------------------------------------------------

TEST(ThreadPool, ExecutesEverySubmittedTask)
{
    ThreadPool pool(4);
    EXPECT_EQ(pool.numWorkers(), 4u);

    std::atomic<int> executed{0};
    std::vector<std::future<void>> futures;
    for (int i = 0; i < 64; ++i)
        futures.push_back(pool.submit([&executed] { ++executed; }));
    for (std::future<void> &future : futures)
        future.get();
    EXPECT_EQ(executed.load(), 64);
}

TEST(ThreadPool, DrainsQueueOnDestruction)
{
    std::atomic<int> executed{0};
    {
        ThreadPool pool(2);
        for (int i = 0; i < 32; ++i)
            pool.submit([&executed] { ++executed; });
        // No explicit wait: the destructor must run every queued task.
    }
    EXPECT_EQ(executed.load(), 32);
}

TEST(ThreadPool, PropagatesExceptionsThroughFutures)
{
    ThreadPool pool(2);
    std::future<void> bad =
        pool.submit([] { throw std::runtime_error("boom"); });
    EXPECT_THROW(bad.get(), std::runtime_error);

    // The pool survives a throwing task.
    std::atomic<int> executed{0};
    pool.submit([&executed] { ++executed; }).get();
    EXPECT_EQ(executed.load(), 1);
}

TEST(ThreadPool, ParallelForCoversAllIndicesExactlyOnce)
{
    ThreadPool pool(8);
    std::vector<std::atomic<int>> hits(100);
    pool.parallelFor(100, [&hits](std::size_t i) { ++hits[i]; });
    for (const std::atomic<int> &h : hits)
        EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelForRethrowsFirstException)
{
    ThreadPool pool(4);
    std::atomic<int> executed{0};
    EXPECT_THROW(pool.parallelFor(16,
                                  [&executed](std::size_t i) {
                                      ++executed;
                                      if (i == 3)
                                          throw std::runtime_error("x");
                                  }),
                 std::runtime_error);
    // All indices still ran: one failure never tears the batch.
    EXPECT_EQ(executed.load(), 16);
}

// ---------------------------------------------------------------------
// Config digest
// ---------------------------------------------------------------------

ExperimentConfig
digestTestConfig()
{
    ExperimentConfig cfg;
    cfg.warmup = 10 * tickUs;
    cfg.measure = 50 * tickUs;
    return cfg;
}

TEST(ConfigDigest, StableAcrossAssignmentOrder)
{
    // The digest hashes a canonical serialization, so two configs
    // whose fields were populated in opposite orders (and a copy)
    // hash identically.
    ExperimentConfig a = digestTestConfig();
    a.requestSize = 64;
    a.mix = RequestMix::ReadModifyWrite;
    a.numPorts = 4;

    ExperimentConfig b = digestTestConfig();
    b.numPorts = 4;
    b.mix = RequestMix::ReadModifyWrite;
    b.requestSize = 64;

    EXPECT_EQ(configDigest(a), configDigest(b));
    const ExperimentConfig c = a;
    EXPECT_EQ(configDigest(a), configDigest(c));
}

TEST(ConfigDigest, DefaultConfigValuesArePinned)
{
    // Digests seed every sweep point and name every store object, so
    // their values may not move (recorded before the digests were
    // derived from the wire field list).
    const ExperimentConfig cfg;
    EXPECT_EQ(configDigest(cfg), 0x7d05d160192b526cULL);
    EXPECT_EQ(configDigest(cfg, false), 0xe063424d3027b5bdULL);
    EXPECT_EQ(warmupDigest(cfg), 0xef089a659f0a6d75ULL);
}

TEST(ConfigDigest, SeedExcludedOnRequest)
{
    ExperimentConfig a = digestTestConfig();
    ExperimentConfig b = a;
    b.seed = a.seed + 1;
    EXPECT_NE(configDigest(a), configDigest(b));
    EXPECT_EQ(configDigest(a, false), configDigest(b, false));
}

TEST(SeedDerivation, ContentAddressedAndNonZero)
{
    const ExperimentConfig base = digestTestConfig();
    // Same content + same sweep seed -> same derived seed; the
    // pre-set seed field is irrelevant.
    ExperimentConfig reseeded = base;
    reseeded.seed = 12345;
    EXPECT_EQ(deriveSeed(7, base), deriveSeed(7, reseeded));
    EXPECT_NE(deriveSeed(7, base), deriveSeed(8, base));
    EXPECT_NE(deriveSeed(7, base), 0u);

    ExperimentConfig other = base;
    other.requestSize = 32;
    EXPECT_NE(deriveSeed(7, base), deriveSeed(7, other));

    EXPECT_EQ(withDerivedSeed(base, 7).seed, deriveSeed(7, base));
}

// ---------------------------------------------------------------------
// Result cache
// ---------------------------------------------------------------------

CachedResult
fakeResult(double gbps)
{
    CachedResult value;
    value.result.patternName = "16 vaults";
    value.result.mix = RequestMix::ReadOnly;
    value.result.requestSize = 128;
    value.result.rawGBps = gbps;
    value.result.mrps = gbps * 7.8125;
    value.result.readLatencyNs.sample(650.25);
    value.result.readLatencyNs.sample(1333.125);
    value.statDigest = 0xDEADBEEFCAFEF00DULL;
    return value;
}

bool
bitIdentical(const MeasurementResult &a, const MeasurementResult &b)
{
    const auto eq = [](double x, double y) {
        return std::memcmp(&x, &y, sizeof(double)) == 0;
    };
    const auto statsEq = [&eq](const SampleStats &x,
                               const SampleStats &y) {
        const SampleStats::Raw rx = x.raw();
        const SampleStats::Raw ry = y.raw();
        return rx.count == ry.count && eq(rx.sum, ry.sum) &&
               eq(rx.min, ry.min) && eq(rx.max, ry.max);
    };
    return a.patternName == b.patternName && a.mix == b.mix &&
           a.requestSize == b.requestSize && eq(a.rawGBps, b.rawGBps) &&
           eq(a.mrps, b.mrps) && eq(a.readMrps, b.readMrps) &&
           eq(a.writeMrps, b.writeMrps) &&
           eq(a.readPayloadGBps, b.readPayloadGBps) &&
           eq(a.writePayloadGBps, b.writePayloadGBps) &&
           statsEq(a.readLatencyNs, b.readLatencyNs) &&
           statsEq(a.writeLatencyNs, b.writeLatencyNs) &&
           eq(a.readLatencyP50Ns, b.readLatencyP50Ns) &&
           eq(a.readLatencyP99Ns, b.readLatencyP99Ns) &&
           eq(a.readLatencyP999Ns, b.readLatencyP999Ns);
}

TEST(ResultCache, HitMissAccounting)
{
    ResultCache cache;
    EXPECT_FALSE(cache.lookup(1).has_value());
    cache.store(1, fakeResult(20.0));
    const auto hit = cache.lookup(1);
    ASSERT_TRUE(hit.has_value());
    EXPECT_TRUE(bitIdentical(hit->result, fakeResult(20.0).result));
    EXPECT_EQ(hit->statDigest, 0xDEADBEEFCAFEF00DULL);
    EXPECT_EQ(cache.hits(), 1u);
    EXPECT_EQ(cache.misses(), 1u);
}

TEST(ResultCache, EvictsLeastRecentlyUsed)
{
    ResultCache cache(3);
    cache.store(1, fakeResult(1.0));
    cache.store(2, fakeResult(2.0));
    cache.store(3, fakeResult(3.0));
    // Touch 1 so 2 becomes the LRU entry, then overflow.
    EXPECT_TRUE(cache.lookup(1).has_value());
    cache.store(4, fakeResult(4.0));
    EXPECT_EQ(cache.size(), 3u);
    EXPECT_FALSE(cache.lookup(2).has_value());
    EXPECT_TRUE(cache.lookup(1).has_value());
    EXPECT_TRUE(cache.lookup(3).has_value());
    EXPECT_TRUE(cache.lookup(4).has_value());
}

TEST(ResultCache, SerializationRoundTripsBitExactly)
{
    CachedResult value = fakeResult(21.337);
    // Awkward doubles: negative zero, subnormal-ish, many digits.
    value.result.writeMrps = -0.0;
    value.result.readLatencyP99Ns = 1234.5678901234567;
    value.result.readLatencyP999Ns = 9876.5432109876543;
    const std::string text = serializeResultFields(value);
    CachedResult parsed;
    ASSERT_TRUE(parseResultFields(text, parsed));
    EXPECT_TRUE(bitIdentical(parsed.result, value.result));
    EXPECT_EQ(parsed.statDigest, value.statDigest);

    // Garbage, a truncated body and a body still behind its object
    // header are rejected, and leave the output unchanged.
    EXPECT_FALSE(parseResultFields("garbage", parsed));
    EXPECT_FALSE(
        parseResultFields(text.substr(0, text.size() / 2), parsed));
    EXPECT_FALSE(parseResultFields("hmcsim-result v5\n" + text, parsed));
    EXPECT_TRUE(bitIdentical(parsed.result, value.result));
}

TEST(ResultCache, FieldBytesMatchTheRecordedBody)
{
    // The v5 body, byte for byte: store objects and worker result
    // frames carry it, so a change here must also bump
    // SharedResultStore::formatHeader and distProtocolVersion.
    CachedResult value = fakeResult(21.337);
    value.result.mix = RequestMix::ReadModifyWrite;
    value.result.mrps = 0.1;
    value.result.writeMrps = -0.0;
    value.result.readLatencyP99Ns = 1234.5678901234567;
    value.result.readLatencyP999Ns = 4.9e-324; // smallest subnormal
    const std::string expected =
        "patternName 16 vaults\n"
        "mix 2\n"
        "requestSize 128\n"
        "rawGBps 0x1.55645a1cac083p+4\n"
        "mrps 0x1.999999999999ap-4\n"
        "readMrps 0x0p+0\n"
        "writeMrps -0x0p+0\n"
        "readPayloadGBps 0x0p+0\n"
        "writePayloadGBps 0x0p+0\n"
        "readLatencyNs 2 0x1.efd8p+10 0x1.452p+9 0x1.4d48p+10\n"
        "writeLatencyNs 0 0x0p+0 inf -inf\n"
        "readLatencyP50Ns 0x0p+0\n"
        "readLatencyP99Ns 0x1.34a4584fd0fdfp+10\n"
        "readLatencyP999Ns 0x0.0000000000001p-1022\n"
        "statDigest 16045690984503111693\n";
    EXPECT_EQ(serializeResultFields(value), expected);

    CachedResult back;
    ASSERT_TRUE(parseResultFields(expected, back));
    EXPECT_TRUE(bitIdentical(back.result, value.result));
    EXPECT_EQ(back.statDigest, value.statDigest);
}

TEST(ResultCache, PersistsAcrossInstances)
{
    const std::filesystem::path dir =
        std::filesystem::temp_directory_path() /
        "hmcsim_test_result_cache";
    std::filesystem::remove_all(dir);

    {
        SharedResultStore store({dir.string(), 300});
        ResultCache cache(store);
        cache.store(42, fakeResult(9.5));
    }
    SharedResultStore store({dir.string(), 300});
    ResultCache fresh(store);
    const auto hit = fresh.lookup(42);
    ASSERT_TRUE(hit.has_value());
    EXPECT_TRUE(bitIdentical(hit->result, fakeResult(9.5).result));
    EXPECT_EQ(store.counters().hits, 1u);
    std::filesystem::remove_all(dir);
}

// ---------------------------------------------------------------------
// Sweep determinism
// ---------------------------------------------------------------------

/** 12 points (4 patterns x 3 sizes), short windows for test speed. */
SweepAxes
testAxes()
{
    static const AddressMapper mapper(HmcConfig::gen2_4GB(),
                                      MaxBlockSize::B128);
    SweepAxes axes;
    axes.patterns = {vaultPattern(mapper, 16), vaultPattern(mapper, 4),
                     vaultPattern(mapper, 1), bankPattern(mapper, 2)};
    axes.mixes = {RequestMix::ReadOnly};
    axes.sizes = {128, 64, 32};
    axes.base.warmup = 10 * tickUs;
    axes.base.measure = 50 * tickUs;
    return axes;
}

TEST(SweepRunner, AxisExpansionIsCanonical)
{
    const std::vector<ExperimentConfig> points = testAxes().expand();
    ASSERT_EQ(points.size(), 12u);
    // Patterns outermost, sizes innermost.
    EXPECT_EQ(points[0].pattern.name, "16 vaults");
    EXPECT_EQ(points[0].requestSize, 128u);
    EXPECT_EQ(points[2].requestSize, 32u);
    EXPECT_EQ(points[3].pattern.name, "4 vaults");
}

TEST(SweepRunner, ParallelBitIdenticalToSerial)
{
    SweepOptions serial;
    serial.jobs = 1;
    const std::vector<SweepPointResult> one =
        SweepRunner(serial).run(testAxes());

    SweepOptions parallel;
    parallel.jobs = 8;
    const std::vector<SweepPointResult> eight =
        SweepRunner(parallel).run(testAxes());

    ASSERT_EQ(one.size(), 12u);
    ASSERT_EQ(eight.size(), 12u);
    for (std::size_t i = 0; i < one.size(); ++i) {
        SCOPED_TRACE(one[i].result.patternName + " / " +
                     std::to_string(one[i].result.requestSize));
        EXPECT_EQ(one[i].digest, eight[i].digest);
        EXPECT_EQ(one[i].config.seed, eight[i].config.seed);
        // The full simulated counter state matched bit-for-bit...
        EXPECT_EQ(one[i].statDigest, eight[i].statDigest);
        // ...and so does every derived measurement field.
        EXPECT_TRUE(bitIdentical(one[i].result, eight[i].result));
    }
}

TEST(SweepRunner, SinkOutputIndependentOfJobCount)
{
    const auto jsonl = [](unsigned jobs) {
        std::ostringstream out;
        JsonLinesSink sink(out);
        SweepOptions opts;
        opts.jobs = jobs;
        opts.sinks = {&sink};
        SweepRunner(opts).run(testAxes());
        return out.str();
    };
    const std::string serial = jsonl(1);
    EXPECT_FALSE(serial.empty());
    EXPECT_EQ(serial, jsonl(4));
}

TEST(Sinks, DoubleFormatMatchesPrintf17g)
{
    // The sinks print doubles through std::to_chars; the JSONL/CSV
    // bytes stay those of printf("%.17g") only if the two agree on
    // every bit pattern, specials included.
    const auto same = [](double v) {
        char expect[40];
        std::snprintf(expect, sizeof(expect), "%.17g", v);
        std::string got;
        appendDouble17(got, v);
        return got == expect;
    };
    const double specials[] = {
        0.0, -0.0, 0.1, 1e300, -1e300, 1.0, 123456789012345678.0,
        std::numeric_limits<double>::denorm_min(),
        -std::numeric_limits<double>::denorm_min(),
        std::numeric_limits<double>::min() / 3.0,
        std::numeric_limits<double>::min(),
        std::numeric_limits<double>::max(),
        std::numeric_limits<double>::lowest(),
        std::numeric_limits<double>::infinity(),
        -std::numeric_limits<double>::infinity(),
        std::numeric_limits<double>::quiet_NaN(),
        -std::numeric_limits<double>::quiet_NaN(),
    };
    for (const double v : specials)
        EXPECT_TRUE(same(v)) << v;

    std::string zeroPointOne;
    appendDouble17(zeroPointOne, 0.1);
    EXPECT_EQ(zeroPointOne, "0.10000000000000001");

    Xoshiro256StarStar rng(0x5eed17);
    std::size_t mismatches = 0;
    for (int i = 0; i < 1'000'000; ++i) {
        const std::uint64_t bits = rng.next();
        double v;
        std::memcpy(&v, &bits, sizeof(v));
        if (!same(v) && ++mismatches <= 5)
            ADD_FAILURE() << "bits 0x" << std::hex << bits;
    }
    EXPECT_EQ(mismatches, 0u);
}

TEST(SweepRunner, CacheShortCircuitsRepeatedRuns)
{
    ResultCache cache;
    SweepOptions opts;
    opts.jobs = 4;
    opts.cache = &cache;

    const std::vector<SweepPointResult> first =
        SweepRunner(opts).run(testAxes());
    for (const SweepPointResult &point : first)
        EXPECT_FALSE(point.fromCache);

    const std::vector<SweepPointResult> second =
        SweepRunner(opts).run(testAxes());
    ASSERT_EQ(second.size(), first.size());
    for (std::size_t i = 0; i < second.size(); ++i) {
        EXPECT_TRUE(second[i].fromCache);
        EXPECT_EQ(second[i].statDigest, first[i].statDigest);
        EXPECT_TRUE(
            bitIdentical(second[i].result, first[i].result));
    }
    EXPECT_EQ(cache.hits(), first.size());
}

} // namespace
