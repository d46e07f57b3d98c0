/**
 * @file
 * Unit tests for the DDR4 DIMM vault and the analysis helpers
 * (regression, Little's law, knee detection, table formatting).
 */

#include <gtest/gtest.h>

#include <cmath>

#include "analysis/closed_loop.hh"
#include "analysis/regression.hh"
#include "analysis/table.hh"

namespace hmcsim
{
namespace
{

// ---- DDR4 DIMM (a vault with the DDR4 engine) --------------------------

TEST(DdrDimm, LinearTrafficHitsRows)
{
    const ClosedLoopResult m =
        measureClosedLoop(ddr4DimmVault(), true, 64, 8, 20000);
    // 1 KB rows, 64 B requests: 15 of 16 accesses hit.
    EXPECT_GT(m.rowHitRate, 0.85);
}

TEST(DdrDimm, RandomTrafficMissesRows)
{
    const ClosedLoopResult m =
        measureClosedLoop(ddr4DimmVault(), false, 64, 8, 20000);
    EXPECT_LT(m.rowHitRate, 0.05);
}

TEST(DdrDimm, LinearBeatsRandomAtModestConcurrency)
{
    const VaultConfig cfg = ddr4DimmVault();
    const ClosedLoopResult lin = measureClosedLoop(cfg, true, 64, 8, 50000);
    const ClosedLoopResult rnd =
        measureClosedLoop(cfg, false, 64, 8, 50000);
    EXPECT_GT(lin.gbps, rnd.gbps);
    EXPECT_LT(lin.avgLatencyNs, rnd.avgLatencyNs);
}

TEST(DdrDimm, ClosedPagePolicyRemovesTheLinearAdvantage)
{
    VaultConfig cfg = ddr4DimmVault();
    cfg.backend.ddrPolicy = PagePolicy::Closed;
    const ClosedLoopResult lin = measureClosedLoop(cfg, true, 64, 8, 30000);
    const ClosedLoopResult rnd =
        measureClosedLoop(cfg, false, 64, 8, 30000);
    EXPECT_DOUBLE_EQ(lin.rowHitRate, 0.0);
    // Linear no longer wins big; random's bank spread can even win.
    EXPECT_LT(lin.gbps / rnd.gbps, 1.15);
}

TEST(DdrDimm, BandwidthBoundedByBus)
{
    const VaultConfig cfg = ddr4DimmVault();
    const ClosedLoopResult m =
        measureClosedLoop(cfg, true, 64, 64, 50000);
    EXPECT_LE(m.gbps, cfg.backend.ddrBusBytesPerSecond / 1e9 * 1.01);
}

TEST(DdrDimm, TfawCapsRandomActivationRate)
{
    // Random 64 B misses need one ACT each: the 4-per-30ns window
    // caps the channel near 133 MRPS x 64 B = 8.5 GB/s even though
    // the bus could carry 19.2.
    const VaultConfig cfg = ddr4DimmVault();
    const ClosedLoopResult m =
        measureClosedLoop(cfg, false, 64, 64, 100000);
    EXPECT_LT(m.gbps, 9.0);
    EXPECT_GT(m.gbps, 7.5);
    // Row hits do not activate: linear traffic still reaches the bus.
    const ClosedLoopResult lin =
        measureClosedLoop(cfg, true, 64, 64, 100000);
    EXPECT_GT(lin.gbps, 18.0);
}

/** One 64 B read or write to @p addr arriving at time 0. */
Tick
access(VaultController &dimm, Addr addr, Command cmd = Command::Read)
{
    Packet pkt{};
    pkt.cmd = cmd;
    pkt.addr = addr;
    pkt.payload = 64;
    return dimm.service(pkt, 0);
}

TEST(DdrDimm, StatsAccumulate)
{
    VaultController dimm(ddr4DimmVault());
    access(dimm, 0);
    access(dimm, 64, Command::Write);
    EXPECT_EQ(dimm.stats().reads + dimm.stats().writes, 2u);
    EXPECT_EQ(dimm.stats().payloadBytes, 128u);
    dimm.reset();
    EXPECT_EQ(dimm.stats().reads + dimm.stats().writes, 0u);
}

TEST(DdrDimm, RowInterleavedMapping)
{
    // Consecutive rows land on consecutive banks: with 16 banks and
    // 1 KB rows, addresses 0 and 1024 use different banks and can
    // overlap, addresses 0 and 16 KB share a bank.
    VaultController a(ddr4DimmVault());
    access(a, 0);
    const Tick overlap = access(a, 1024);
    VaultController c(ddr4DimmVault());
    access(c, 0);
    const Tick conflict = access(c, 16 * 1024);
    EXPECT_LT(overlap, conflict);
}

TEST(DdrDimm, ReproducesTheStandaloneChannelBitForBit)
{
    // Hexfloats of the standalone DDR channel model this vault
    // replaced, measured over 200k reads per shape: the bench shapes
    // (linear/random at 4, 8 and 64 outstanding), closed page, a
    // 6.4 GB/s bus, and 128 B / 32 B requests. The vault must give
    // the same bits.
    struct Shape
    {
        bool linear;
        Bytes size;
        unsigned outstanding;
        bool closedPage;
        double busBytesPerSecond;
        ClosedLoopResult expected;
    };
    const Shape shapes[] = {
        {true, 64, 4, false, 19.2e9,
         {0x1.6580f09997af1p+2, 0x1.6ea147ae11891p+5, 0x1.ep-1}},
        {false, 64, 4, false, 19.2e9,
         {0x1.bc9b4ace4417ap+1, 0x1.26cd3ccab9061p+6, 0x0p+0}},
        {true, 64, 8, false, 19.2e9,
         {0x1.2464b4ace3efep+3, 0x1.c04467381e0fp+5, 0x1.ep-1}},
        {false, 64, 8, false, 19.2e9,
         {0x1.8d6785adff1bbp+2, 0x1.49d0db90b5fcap+6, 0x0p+0}},
        {true, 64, 64, false, 19.2e9,
         {0x1.3329c397452ddp+4, 0x1.aaa692138f9acp+7, 0x1.ep-1}},
        {false, 64, 64, false, 19.2e9,
         {0x1.110e0e983a241p+3, 0x1.dff26ac2409ffp+8, 0x0p+0}},
        {true, 64, 8, true, 19.2e9,
         {0x1.34deeed78b78bp+1, 0x1.a8588701107afp+7, 0x0p+0}},
        {false, 64, 8, true, 19.2e9,
         {0x1.84e7fbf29d65ap+2, 0x1.510613813c4b8p+6, 0x0p+0}},
        {false, 64, 64, false, 6.4e9,
         {0x1.9995ab0139bdep+2, 0x1.3ff62b6ae7d56p+9, 0x0p+0}},
        {true, 128, 8, false, 19.2e9,
         {0x1.b2895db219e2bp+3, 0x1.2da1ee319d362p+6, 0x1.cp-1}},
        {false, 32, 8, false, 19.2e9,
         {0x1.936a8fd69a44ap+1, 0x1.44e698be500cep+6, 0x0p+0}},
    };
    for (const Shape &s : shapes) {
        VaultConfig cfg = ddr4DimmVault();
        if (s.closedPage)
            cfg.backend.ddrPolicy = PagePolicy::Closed;
        cfg.backend.ddrBusBytesPerSecond = s.busBytesPerSecond;
        const ClosedLoopResult got = measureClosedLoop(
            cfg, s.linear, s.size, s.outstanding, 200000);
        SCOPED_TRACE(strfmt("%s %lluB x%u%s, %.1f GB/s bus",
                            s.linear ? "linear" : "random",
                            static_cast<unsigned long long>(s.size),
                            s.outstanding, s.closedPage ? " closed" : "",
                            s.busBytesPerSecond / 1e9));
        EXPECT_EQ(got.gbps, s.expected.gbps);
        EXPECT_EQ(got.avgLatencyNs, s.expected.avgLatencyNs);
        EXPECT_EQ(got.rowHitRate, s.expected.rowHitRate);
    }
}

// ---- Regression -------------------------------------------------------

TEST(LinearFitTest, ExactLine)
{
    const LinearFit fit =
        linearFit({1.0, 2.0, 3.0, 4.0}, {3.0, 5.0, 7.0, 9.0});
    EXPECT_NEAR(fit.slope, 2.0, 1e-12);
    EXPECT_NEAR(fit.intercept, 1.0, 1e-12);
    EXPECT_NEAR(fit.r2, 1.0, 1e-12);
    EXPECT_NEAR(fit.at(10.0), 21.0, 1e-12);
}

TEST(LinearFitTest, NoisyDataStillCloseAndR2Sane)
{
    std::vector<double> xs, ys;
    for (int i = 0; i < 100; ++i) {
        xs.push_back(i);
        ys.push_back(0.5 * i + 3.0 + ((i % 2) ? 0.2 : -0.2));
    }
    const LinearFit fit = linearFit(xs, ys);
    EXPECT_NEAR(fit.slope, 0.5, 0.01);
    EXPECT_GT(fit.r2, 0.99);
    EXPECT_LT(fit.r2, 1.0);
}

TEST(LinearFitTest, DegenerateInputs)
{
    EXPECT_EQ(linearFit({}, {}).n, 0u);
    EXPECT_DOUBLE_EQ(linearFit({1.0}, {2.0}).slope, 0.0);
    // Vertical line (all x equal) must not blow up.
    const LinearFit fit = linearFit({2.0, 2.0, 2.0}, {1.0, 2.0, 3.0});
    EXPECT_DOUBLE_EQ(fit.slope, 0.0);
}

TEST(LittlesLaw, Arithmetic)
{
    // 10 us in system at 50 Mreq/s = 500 requests in flight.
    EXPECT_DOUBLE_EQ(littlesLawOccupancy(10.0, 50.0), 500.0);
    EXPECT_DOUBLE_EQ(littlesLawOccupancy(0.0, 50.0), 0.0);
}

TEST(SaturationKnee, FindsFirstDoubling)
{
    const std::vector<LatencyBandwidthPoint> curve = {
        {1.0, 1.0}, {2.0, 1.1}, {3.0, 1.3}, {3.5, 2.5}, {3.6, 5.0}};
    EXPECT_EQ(saturationKnee(curve, 2.0), 3u);
}

TEST(SaturationKnee, NeverSaturatingReturnsLastPoint)
{
    const std::vector<LatencyBandwidthPoint> curve = {
        {1.0, 1.0}, {2.0, 1.1}, {3.0, 1.2}};
    EXPECT_EQ(saturationKnee(curve, 2.0), 2u);
}

TEST(SaturationKnee, EmptyCurve)
{
    EXPECT_EQ(saturationKnee({}, 2.0), 0u);
}

// ---- Table formatting --------------------------------------------------

TEST(TextTableTest, AlignsColumns)
{
    TextTable table({"a", "long-header"});
    table.addRow({"xxxxxx", "1"});
    const std::string out = table.render();
    EXPECT_NE(out.find("a       long-header"), std::string::npos);
    EXPECT_NE(out.find("xxxxxx  1"), std::string::npos);
    EXPECT_NE(out.find("-----"), std::string::npos);
}

TEST(TextTableTest, RejectsWrongArity)
{
    TextTable table({"a", "b"});
    EXPECT_DEATH(table.addRow({"only-one"}), "arity");
}

TEST(TextTableTest, CsvRenderingAndQuoting)
{
    TextTable table({"name", "value"});
    table.addRow({"plain", "1"});
    table.addRow({"with,comma", "2"});
    table.addRow({"with\"quote", "3"});
    const std::string csv = table.renderCsv();
    EXPECT_NE(csv.find("name,value\n"), std::string::npos);
    EXPECT_NE(csv.find("plain,1\n"), std::string::npos);
    EXPECT_NE(csv.find("\"with,comma\",2"), std::string::npos);
    EXPECT_NE(csv.find("\"with\"\"quote\",3"), std::string::npos);
}

TEST(StrFmt, FormatsLikePrintf)
{
    EXPECT_EQ(strfmt("%d-%s", 42, "x"), "42-x");
    EXPECT_EQ(strfmt("%.2f", 3.14159), "3.14");
}

} // namespace
} // namespace hmcsim
