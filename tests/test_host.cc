/**
 * @file
 * Unit tests for the host layer: controller calibration arithmetic,
 * the Fig. 14 stage breakdowns, AC-510 assembly, and the experiment
 * runner plumbing.
 */

#include <gtest/gtest.h>

#include "host/ac510.hh"
#include "host/calibration.hh"
#include "host/experiment.hh"
#include "host/hmc_controller.hh"

namespace hmcsim
{
namespace
{

TEST(Calibration, FixedLatenciesMatchPaperFigure14)
{
    const ControllerCalibration cal;
    // 34 pipeline cycles at 187.5 MHz ~= 181 ns before serialization.
    EXPECT_NEAR(ticksToNs(cal.txFixedLatency()), 181.3, 1.0);
    EXPECT_NEAR(ticksToNs(cal.rxFixedLatency()), 160.0, 1.0);
}

TEST(Calibration, TxFixedLatencySumsCyclesAsTicks)
{
    // Four 32-bit cycle counts summed in 32 bits would wrap here.
    ControllerCalibration cal;
    cal.flitsToParallelCycles = 0xFFFFFFFFu;
    EXPECT_EQ(cal.txFixedLatency(), Tick{5333} * (Tick{0xFFFFFFFFu} + 24));
    // The largest counts calibrationError() accepts still fit a tick.
    cal.flitsToParallelCycles = cal.arbiterCycles = cal.seqFlowCrcCycles =
        cal.serdesConvertCycles = (1u << 30) - 1;
    cal.fpgaCyclePs = (Tick{1} << 32) - 1;
    EXPECT_EQ(calibrationError(cal), nullptr);
    EXPECT_EQ(cal.txFixedLatency() / cal.fpgaCyclePs, (Tick{1} << 32) - 4);
}

TEST(Calibration, LinkConfigsDerateTheRawRate)
{
    const ControllerCalibration cal;
    EXPECT_NEAR(cal.txLinkConfig().effectiveLinkBytesPerSecond(),
                cal.txBytesPerSecondPerLink, 1.0);
    EXPECT_NEAR(cal.rxLinkConfig().effectiveLinkBytesPerSecond(),
                cal.rxBytesPerSecondPerLink, 1.0);
    EXPECT_LT(cal.txLinkConfig().protocolEfficiency, 1.0);
    EXPECT_LT(cal.rxLinkConfig().protocolEfficiency, 1.0);
}

TEST(Controller, TxBreakdownSumsNearPaperValue)
{
    Ac510Config sys;
    Ac510Module module(sys);
    double total = 0.0;
    for (const StageLatency &s :
         module.controller().txStageBreakdown(144))
        total += s.ns;
    // Paper: up to 54 cycles / ~287 ns on the TX path.
    EXPECT_NEAR(total, 287.0, 15.0);
}

TEST(Controller, RxBreakdownSumsNearPaperValue)
{
    Ac510Config sys;
    Ac510Module module(sys);
    double total = 0.0;
    for (const StageLatency &s :
         module.controller().rxStageBreakdown(144))
        total += s.ns;
    EXPECT_NEAR(total, 260.0, 15.0);
}

TEST(Controller, InfrastructureLatencyNearPaper547)
{
    Ac510Config sys;
    Ac510Module module(sys);
    const double infra = module.controller().infrastructureLatencyNs(
        requestBytes(Command::Read, 128),
        responseBytes(Command::Read, 128));
    EXPECT_NEAR(infra, 547.0, 30.0);
}

TEST(Controller, BiggerPacketsSpendLongerOnTheWire)
{
    Ac510Config sys;
    Ac510Module module(sys);
    const auto &ctrl = module.controller();
    double tx_small = 0.0, tx_large = 0.0;
    for (const auto &s : ctrl.txStageBreakdown(32))
        tx_small += s.ns;
    for (const auto &s : ctrl.txStageBreakdown(144))
        tx_large += s.ns;
    EXPECT_GT(tx_large, tx_small);
}

TEST(Ac510, RejectsBadPortCounts)
{
    Ac510Config sys;
    sys.numPorts = 0;
    EXPECT_DEATH({ Ac510Module module(sys); }, "1..9");
    Ac510Config sys10;
    sys10.numPorts = 10;
    EXPECT_DEATH({ Ac510Module module(sys10); }, "1..9");
}

TEST(Ac510, RunsAndDeliversResponses)
{
    Ac510Config sys;
    sys.numPorts = 2;
    sys.port.requestBudget = 10;
    Ac510Module module(sys);
    module.start();
    module.runToCompletion();
    const GupsPortStats agg = module.aggregateStats();
    EXPECT_EQ(agg.readsIssued, 20u);
    EXPECT_EQ(agg.readsCompleted, 20u);
    EXPECT_TRUE(module.allPortsIdle());
}

TEST(Ac510, ConservationNoResponseLeaks)
{
    Ac510Config sys;
    sys.numPorts = maxGupsPorts;
    Ac510Module module(sys);
    module.start();
    module.runUntil(200 * tickUs);
    module.stop();
    module.runToCompletion(); // drain
    const GupsPortStats agg = module.aggregateStats();
    EXPECT_EQ(agg.readsIssued, agg.readsCompleted);
    EXPECT_TRUE(module.allPortsIdle());
    EXPECT_EQ(module.controller().stats().requestsSubmitted,
              module.controller().stats().responsesDelivered);
    EXPECT_EQ(module.device().stats().requests, agg.readsIssued);
}

/** Issue one read through a one-port module, let @p corrupt rewrite
 *  the pooled request after the controller stamped its header and
 *  CRC, and deliver it to the cube. */
template <typename Corrupt>
void
deliverCorruptedRequest(Corrupt corrupt)
{
    Ac510Config sys;
    sys.numPorts = 1;
    sys.port.requestBudget = 1;
    Ac510Module module(sys);
    module.start();
    ASSERT_TRUE(module.queue().step()); // the port's first issue
    ASSERT_EQ(module.controller().stats().requestsSubmitted, 1u);
    // The request is on the TX wire in the pool's first slot. A write
    // through the pool stands for a simulator bug that changes a
    // packet between stamp and verify.
    Packet &wire =
        const_cast<PacketPool &>(module.controller().packetPool())[0];
    ASSERT_NE(wire.headerBits, 0u);
    corrupt(wire);
    module.runToCompletion();
}

TEST(CubeVerifyDeathTest, ChangedIdFailsAtTheCube)
{
    EXPECT_DEATH(deliverCorruptedRequest([](Packet &p) { p.id ^= 1; }),
                 "failed CRC|header mismatch");
}

TEST(CubeVerifyDeathTest, ChangedAddressFailsAtTheCube)
{
    // Above the header's 34 address bits: only the CRC sees it.
    EXPECT_DEATH(deliverCorruptedRequest(
                     [](Packet &p) { p.addr ^= Addr{1} << 40; }),
                 "failed CRC|header mismatch");
    EXPECT_DEATH(deliverCorruptedRequest(
                     [](Packet &p) { p.addr ^= 0x40; }),
                 "failed CRC|header mismatch");
}

TEST(CubeVerifyDeathTest, ChangedHeaderFailsAtTheCube)
{
    // A tag bit: the cube's header decode does not check the tag.
    EXPECT_DEATH(deliverCorruptedRequest(
                     [](Packet &p) { p.headerBits ^= 1ULL << 12; }),
                 "failed CRC|header mismatch");
}

TEST(Experiment, MeasurementFieldsConsistent)
{
    ExperimentConfig cfg;
    cfg.measure = 200 * tickUs;
    const MeasurementResult m = runExperiment(cfg);
    EXPECT_GT(m.rawGBps, 0.0);
    EXPECT_GT(m.readMrps, 0.0);
    EXPECT_DOUBLE_EQ(m.writeMrps, 0.0); // read-only
    EXPECT_NEAR(m.mrps, m.readMrps + m.writeMrps, 1e-9);
    // Raw bytes per request = 160 for 128 B reads.
    EXPECT_NEAR(m.rawGBps * 1000.0 / m.mrps, 160.0, 1.0);
    EXPECT_GT(m.readLatencyNs.min(), 500.0); // > infrastructure
}

TEST(Experiment, SeedReproducibility)
{
    ExperimentConfig cfg;
    cfg.measure = 100 * tickUs;
    cfg.seed = 1234;
    const MeasurementResult a = runExperiment(cfg);
    const MeasurementResult b = runExperiment(cfg);
    EXPECT_DOUBLE_EQ(a.rawGBps, b.rawGBps);
    EXPECT_DOUBLE_EQ(a.readLatencyNs.mean(), b.readLatencyNs.mean());
}

TEST(Experiment, TrafficSummaryMatchesMeasurement)
{
    ExperimentConfig cfg;
    cfg.mix = RequestMix::ReadModifyWrite;
    cfg.measure = 200 * tickUs;
    const MeasurementResult m = runExperiment(cfg);
    const TrafficSummary t = m.traffic();
    EXPECT_DOUBLE_EQ(t.rawGBps, m.rawGBps);
    EXPECT_GT(t.readPayloadGBps, 0.0);
    EXPECT_GT(t.writePayloadGBps, 0.0);
    // rw: one write per read.
    EXPECT_NEAR(t.readMrps, t.writeMrps, t.readMrps * 0.05);
}

TEST(Experiment, ThermalExperimentSolvesFixedPoint)
{
    ExperimentConfig cfg;
    cfg.measure = 200 * tickUs;
    const ThermalExperimentResult r =
        runThermalExperiment(cfg, coolingConfig(1));
    EXPECT_GT(r.powerThermal.temperatureC,
              coolingConfig(1).idleTemperatureC);
    EXPECT_FALSE(r.powerThermal.failure);
    EXPECT_GT(r.powerThermal.systemW, 100.0);
}

TEST(Experiment, StreamReturnsOneLatencyPerRequest)
{
    StreamExperimentConfig cfg;
    cfg.requestsPerStream = 7;
    cfg.repetitions = 3;
    const SampleStats lat = runStreamExperiment(cfg);
    EXPECT_EQ(lat.count(), 21u);
    EXPECT_GT(lat.min(), 0.0);
    EXPECT_GE(lat.max(), lat.mean());
}

TEST(Experiment, StreamLatencyGrowsWithStreamSize)
{
    StreamExperimentConfig small;
    small.requestsPerStream = 2;
    small.repetitions = 16;
    StreamExperimentConfig large;
    large.requestsPerStream = 28;
    large.repetitions = 16;
    EXPECT_GT(runStreamExperiment(large).max(),
              runStreamExperiment(small).max());
}

TEST(Experiment, TailLatencyPercentilesAreOrdered)
{
    ExperimentConfig cfg;
    cfg.measure = 200 * tickUs;
    const MeasurementResult m = runExperiment(cfg);
    EXPECT_GT(m.readLatencyP50Ns, m.readLatencyNs.min() * 0.9);
    EXPECT_GE(m.readLatencyP99Ns, m.readLatencyP50Ns);
    EXPECT_LE(m.readLatencyP99Ns, m.readLatencyNs.max() * 1.1);
    // The mean sits between the median and the max.
    EXPECT_LT(m.readLatencyP50Ns, m.readLatencyNs.max());
}

TEST(Experiment, PortsScaleOfferedLoad)
{
    ExperimentConfig one;
    one.numPorts = 1;
    one.measure = 200 * tickUs;
    ExperimentConfig nine;
    nine.numPorts = 9;
    nine.measure = 200 * tickUs;
    const MeasurementResult m1 = runExperiment(one);
    const MeasurementResult m9 = runExperiment(nine);
    EXPECT_GT(m9.rawGBps, m1.rawGBps);
}

} // namespace
} // namespace hmcsim
