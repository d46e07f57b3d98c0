/**
 * @file
 * Tests for the trace substrate: parsing/formatting, synthetic
 * generators, and replay against the simulated platform.
 */

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "gups/trace.hh"
#include "host/trace_replay.hh"

namespace hmcsim
{
namespace
{

// ---- Parsing ------------------------------------------------------------

TEST(TraceParse, BasicRecords)
{
    const Trace t = parseTraceString("R 0x100 128\n"
                                     "W 4096 64\n"
                                     "A 0x2000\n");
    ASSERT_EQ(t.size(), 3u);
    EXPECT_EQ(t[0].op, Command::Read);
    EXPECT_EQ(t[0].addr, 0x100u);
    EXPECT_EQ(t[0].size, 128u);
    EXPECT_EQ(t[1].op, Command::Write);
    EXPECT_EQ(t[1].addr, 4096u);
    EXPECT_EQ(t[2].op, Command::Atomic);
    EXPECT_EQ(t[2].size, 16u);
}

TEST(TraceParse, CommentsAndBlanksIgnored)
{
    const Trace t = parseTraceString("# header\n"
                                     "\n"
                                     "R 0 16  # trailing comment\n"
                                     "   \n");
    ASSERT_EQ(t.size(), 1u);
    EXPECT_EQ(t[0].size, 16u);
}

TEST(TraceParse, LowercaseOps)
{
    const Trace t = parseTraceString("r 0 16\nw 16 16\na 32\n");
    EXPECT_EQ(t.size(), 3u);
}

TEST(TraceParse, RejectsBadOps)
{
    EXPECT_DEATH(parseTraceString("X 0 16\n"), "unknown op");
}

TEST(TraceParse, RejectsBadSizes)
{
    EXPECT_DEATH(parseTraceString("R 0 24\n"), "bad size");
    EXPECT_DEATH(parseTraceString("R 0 256\n"), "bad size");
    EXPECT_DEATH(parseTraceString("R 0 0\n"), "bad size");
}

TEST(TraceParse, RejectsMalformedFieldsWithTheirLineNumber)
{
    // A non-numeric address once escaped as an uncaught
    // std::invalid_argument; trailing junk after the size was dropped,
    // and an out-of-range size read as a missing one.
    EXPECT_DEATH(parseTraceString("R zz 64\n"), "line 1: bad address 'zz'");
    EXPECT_DEATH(parseTraceString("R 0 16\nR 0x40 64junk\n"),
                 "line 2: bad size '64junk'");
    EXPECT_DEATH(parseTraceString("R 0x40 99999999999999999999999\n"),
                 "line 1: bad size '9+'");
    EXPECT_DEATH(parseTraceString("R 0x40 64 9\n"),
                 "line 1: unexpected field '9'");
    EXPECT_DEATH(parseTraceString("A 0x40 16\n"),
                 "line 1: unexpected field '16'");
    EXPECT_DEATH(parseTraceString("W -64 16\n"), "bad address '-64'");
    EXPECT_DEATH(parseTraceString("W 0x 16\n"), "bad address '0x'");
    EXPECT_DEATH(parseTraceString("W 010 16\n"), "bad address '010'");
    EXPECT_DEATH(parseTraceString("R 0 144\n"), "line 1: bad size 144");
}

TEST(TraceParse, AddressesAreHexOrDecimal)
{
    const Trace t =
        parseTraceString("R 0x1A2b 16\nW\t4096\t32\r\nA 0X10 # c");
    ASSERT_EQ(t.size(), 3u);
    EXPECT_EQ(t[0].addr, 0x1A2Bu);
    EXPECT_EQ(t[1].addr, 4096u);
    EXPECT_EQ(t[1].size, 32u);
    EXPECT_EQ(t[2].addr, 0x10u);
}

TEST(TraceParse, RoundTripsThroughFormat)
{
    const Trace t = parseTraceString("R 0x100 128\nW 0x200 64\nA 0x300\n");
    const Trace again = parseTraceString(formatTrace(t));
    ASSERT_EQ(again.size(), t.size());
    for (std::size_t i = 0; i < t.size(); ++i) {
        EXPECT_EQ(again[i].op, t[i].op);
        EXPECT_EQ(again[i].addr, t[i].addr);
        EXPECT_EQ(again[i].size, t[i].size);
    }
}

// ---- Generators ------------------------------------------------------------

TEST(TraceGen, UniformCoversFootprint)
{
    SyntheticTraceConfig cfg;
    cfg.numEntries = 20000;
    cfg.footprint = 1 * mib;
    const Trace t = uniformTrace(cfg);
    EXPECT_EQ(t.size(), 20000u);
    std::set<Addr> addrs;
    for (const TraceEntry &e : t) {
        EXPECT_LT(e.addr, 1u * mib);
        EXPECT_EQ(e.addr % 128, 0u);
        addrs.insert(e.addr);
    }
    // 8192 slots, 20000 draws: nearly all slots touched.
    EXPECT_GT(addrs.size(), 7000u);
}

TEST(TraceGen, WriteFractionRespected)
{
    SyntheticTraceConfig cfg;
    cfg.numEntries = 20000;
    cfg.writeFraction = 0.3;
    const Trace t = uniformTrace(cfg);
    int writes = 0;
    for (const TraceEntry &e : t)
        writes += e.op == Command::Write;
    EXPECT_NEAR(writes / 20000.0, 0.3, 0.02);
}

TEST(TraceGen, StridedWalksTheFootprint)
{
    SyntheticTraceConfig cfg;
    cfg.numEntries = 100;
    cfg.requestSize = 64;
    const Trace t = stridedTrace(cfg, 64);
    for (std::size_t i = 0; i < t.size(); ++i)
        EXPECT_EQ(t[i].addr, i * 64);
}

TEST(TraceGen, StridedWrapsAtFootprint)
{
    SyntheticTraceConfig cfg;
    cfg.numEntries = 10;
    cfg.requestSize = 128;
    cfg.footprint = 512;
    const Trace t = stridedTrace(cfg, 128);
    EXPECT_EQ(t[4].addr, 0u); // wrapped after 4 slots
}

TEST(TraceGen, ZipfSkewsTowardHotObjects)
{
    SyntheticTraceConfig cfg;
    cfg.numEntries = 50000;
    const Trace skewed = zipfTrace(cfg, 1.2, 1000);
    std::map<Addr, int> counts;
    for (const TraceEntry &e : skewed)
        ++counts[e.addr];
    // The hottest object dominates under alpha = 1.2.
    int hottest = 0;
    for (const auto &[addr, count] : counts)
        hottest = std::max(hottest, count);
    EXPECT_GT(hottest, 50000 / 100); // > 1 % to one object
    // alpha = 0 degenerates to uniform: hottest object ~ 1/1000.
    const Trace flat = zipfTrace(cfg, 0.0, 1000);
    counts.clear();
    for (const TraceEntry &e : flat)
        ++counts[e.addr];
    int flat_hottest = 0;
    for (const auto &[addr, count] : counts)
        flat_hottest = std::max(flat_hottest, count);
    EXPECT_LT(flat_hottest, hottest / 4);
}

TEST(TraceGen, PointerChaseVisitsDistinctSlots)
{
    SyntheticTraceConfig cfg;
    cfg.numEntries = 4096;
    cfg.footprint = 4096 * 128;
    const Trace t = pointerChaseTrace(cfg);
    std::set<Addr> addrs;
    for (const TraceEntry &e : t)
        addrs.insert(e.addr);
    EXPECT_EQ(addrs.size(), 4096u); // a permutation: no repeats
}

TEST(TraceGen, Deterministic)
{
    SyntheticTraceConfig cfg;
    cfg.numEntries = 100;
    const Trace a = uniformTrace(cfg);
    const Trace b = uniformTrace(cfg);
    for (std::size_t i = 0; i < a.size(); ++i)
        EXPECT_EQ(a[i].addr, b[i].addr);
}

// ---- Replay ------------------------------------------------------------------

TEST(TraceReplay, DrainsEveryRecord)
{
    SyntheticTraceConfig cfg;
    cfg.numEntries = 5000;
    const Trace t = uniformTrace(cfg);
    const TraceReplayResult r = replayTrace(t);
    EXPECT_EQ(r.latencyNs.count(), 5000u);
    EXPECT_GT(r.rawGBps, 0.0);
    EXPECT_GT(r.elapsed, 0u);
}

TEST(TraceReplay, DependentChainIsLatencyBound)
{
    SyntheticTraceConfig cfg;
    cfg.numEntries = 2000;
    const Trace chase = pointerChaseTrace(cfg);
    TraceReplayConfig serial;
    serial.maxOutstanding = 1;
    const TraceReplayResult r = replayTrace(chase, serial);
    // One request at a time: throughput = 1 / round-trip.
    const double expected_mrps = 1000.0 / r.latencyNs.mean();
    EXPECT_NEAR(r.mrps, expected_mrps, expected_mrps * 0.15);
    // And far below what a 64-deep window achieves.
    const TraceReplayResult wide = replayTrace(chase);
    EXPECT_GT(wide.mrps, r.mrps * 10.0);
}

TEST(TraceReplay, WindowScalesThroughput)
{
    SyntheticTraceConfig cfg;
    cfg.numEntries = 8000;
    const Trace t = uniformTrace(cfg);
    double prev = 0.0;
    for (unsigned window : {1u, 4u, 16u, 64u}) {
        TraceReplayConfig rc;
        rc.maxOutstanding = window;
        const double gbps = replayTrace(t, rc).rawGBps;
        EXPECT_GT(gbps, prev);
        prev = gbps;
    }
}

TEST(TraceReplay, RejectsAZeroWindow)
{
    // A zero window would issue nothing and report zero bandwidth.
    const Trace t = parseTraceString("R 0 128\n");
    TraceReplayConfig rc;
    rc.maxOutstanding = 0;
    EXPECT_DEATH(replayTrace(t, rc), "window 0 must be at least 1");
}

TEST(TraceReplay, MixedTraceAccounting)
{
    const Trace t = parseTraceString("R 0 128\nW 128 128\nA 256\n");
    const TraceReplayResult r = replayTrace(t);
    EXPECT_EQ(r.latencyNs.count(), 3u);
    // 160 + 160 + 48 raw bytes over the elapsed time.
    const double expected_raw = 368.0;
    EXPECT_NEAR(r.rawGBps * ticksToSeconds(r.elapsed) * 1e9,
                expected_raw, 1.0);
}

TEST(TraceReplay, HotSpotTraceIsSlowerThanUniform)
{
    SyntheticTraceConfig cfg;
    cfg.numEntries = 20000;
    const Trace uniform = uniformTrace(cfg);
    // Extreme skew: effectively one hot 128 B object -> one bank.
    const Trace hot = zipfTrace(cfg, 3.0, 1000);
    const double u = replayTrace(uniform).rawGBps;
    const double h = replayTrace(hot).rawGBps;
    EXPECT_LT(h, u * 0.5);
}

} // namespace
} // namespace hmcsim
