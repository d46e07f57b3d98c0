/**
 * @file
 * Integration tests: full-system experiments crossing every module,
 * checking the paper's headline behaviors end to end.
 */

#include <gtest/gtest.h>

#include "gups/patterns.hh"
#include "host/experiment.hh"

namespace hmcsim
{
namespace
{

const AddressMapper &
mapper()
{
    static const AddressMapper m(HmcConfig::gen2_4GB(),
                                 MaxBlockSize::B128);
    return m;
}

MeasurementResult
quickRun(const AccessPattern &pattern, RequestMix mix, Bytes size,
         unsigned ports = maxGupsPorts)
{
    ExperimentConfig cfg;
    cfg.pattern = pattern;
    cfg.mix = mix;
    cfg.requestSize = size;
    cfg.numPorts = ports;
    cfg.warmup = 50 * tickUs;
    cfg.measure = 300 * tickUs;
    return runExperiment(cfg);
}

TEST(Integration, DistributedReadBandwidthNearPaper)
{
    const MeasurementResult m =
        quickRun(vaultPattern(mapper(), 16), RequestMix::ReadOnly, 128);
    // Paper Fig. 7: ~22 GB/s raw; accept the calibrated 19-23 window.
    EXPECT_GT(m.rawGBps, 18.0);
    EXPECT_LT(m.rawGBps, 24.0);
}

TEST(Integration, RequestTypeOrdering)
{
    const AccessPattern p = vaultPattern(mapper(), 16);
    const double ro = quickRun(p, RequestMix::ReadOnly, 128).rawGBps;
    const double wo = quickRun(p, RequestMix::WriteOnly, 128).rawGBps;
    const double rw =
        quickRun(p, RequestMix::ReadModifyWrite, 128).rawGBps;
    // Fig. 7: rw > ro > wo, rw ~2x wo.
    EXPECT_GT(rw, ro);
    EXPECT_GT(ro, wo);
    EXPECT_NEAR(rw / wo, 2.0, 0.45);
}

TEST(Integration, VaultBandwidthCap)
{
    // Any single-vault pattern is bounded by ~10 GB/s (Sec. IV-A).
    for (Bytes size : {32u, 64u, 128u}) {
        const MeasurementResult m =
            quickRun(vaultPattern(mapper(), 1), RequestMix::ReadOnly,
                     size);
        EXPECT_LE(m.rawGBps, 10.5) << size;
        EXPECT_GE(m.rawGBps, 8.0) << size;
    }
}

TEST(Integration, EightBanksSaturateAVault)
{
    // Fig. 7: beyond 8 banks, more banks do not help.
    const double b8 =
        quickRun(bankPattern(mapper(), 8), RequestMix::ReadOnly, 128)
            .rawGBps;
    const double v1 =
        quickRun(vaultPattern(mapper(), 1), RequestMix::ReadOnly, 128)
            .rawGBps;
    EXPECT_NEAR(b8, v1, 0.5);
    // ...but 2 -> 4 banks still roughly doubles.
    const double b2 =
        quickRun(bankPattern(mapper(), 2), RequestMix::ReadOnly, 128)
            .rawGBps;
    const double b4 =
        quickRun(bankPattern(mapper(), 4), RequestMix::ReadOnly, 128)
            .rawGBps;
    EXPECT_NEAR(b4 / b2, 1.65, 0.4);
}

TEST(Integration, HighLoadLatencyFollowsLittlesLaw)
{
    // With all 9x64 tags outstanding, avg latency ~= 576 / throughput.
    const MeasurementResult m =
        quickRun(bankPattern(mapper(), 1), RequestMix::ReadOnly, 128);
    const double expected_us = 576.0 / m.readMrps;
    EXPECT_NEAR(m.readLatencyNs.mean() / 1000.0, expected_us,
                expected_us * 0.10);
}

TEST(Integration, HighLoadLatencyIsManyTimesLowLoad)
{
    // Sec. IV-E3: high-load average is ~12x the low-load average.
    const MeasurementResult high =
        quickRun(vaultPattern(mapper(), 16), RequestMix::ReadOnly, 128);
    StreamExperimentConfig low;
    low.requestsPerStream = 2;
    low.repetitions = 16;
    const double low_avg = runStreamExperiment(low).mean();
    const double ratio = high.readLatencyNs.mean() / low_avg;
    EXPECT_GT(ratio, 4.0);
    EXPECT_LT(ratio, 20.0);
}

TEST(Integration, LinearEqualsRandomUnderClosedPage)
{
    const AccessPattern p = vaultPattern(mapper(), 16);
    ExperimentConfig lin;
    lin.pattern = p;
    lin.mode = AddressingMode::Linear;
    lin.measure = 300 * tickUs;
    ExperimentConfig rnd = lin;
    rnd.mode = AddressingMode::Random;
    const double l = runExperiment(lin).rawGBps;
    const double r = runExperiment(rnd).rawGBps;
    EXPECT_NEAR(l / r, 1.0, 0.08);
}

TEST(Integration, OpenPageAblationRewardsLinearLocality)
{
    // Ablation of the paper's closed-page design choice: force the
    // vaults to open-page and confine linear traffic to one bank so
    // consecutive requests hit the same 256 B row.
    ExperimentConfig cfg;
    cfg.pattern = bankPattern(mapper(), 1);
    cfg.mode = AddressingMode::Linear;
    cfg.numPorts = 1;
    cfg.measure = 300 * tickUs;
    const double closed = runExperiment(cfg).rawGBps;
    cfg.device.vault.policy = PagePolicy::Open;
    const double open = runExperiment(cfg).rawGBps;
    EXPECT_GT(open, closed * 1.5);
}

TEST(Integration, SmallerMaxBlockSpreadsASinglePageWider)
{
    // Mode-register ablation (footnote 5/6): with 32 B max blocks, a
    // single 4 KB page reaches more banks, so single-page traffic is
    // faster than under 128 B max blocks.
    // Confine traffic to vault 0's slice of one 4 KB page so the
    // number of banks the page touches is the binding resource: 2
    // banks under 128 B max blocks vs 8 banks under 32 B max blocks.
    auto one_page_one_vault = [](const AddressMapper &m) {
        return AccessPattern{
            "one page, vault 0",
            ~Addr(0xFFF) | bitRangeMask(m.vaultShift(),
                                        m.vaultShift() + 3),
            0, 1, 0};
    };
    ExperimentConfig cfg;
    cfg.requestSize = 32;
    cfg.measure = 300 * tickUs;
    cfg.pattern = one_page_one_vault(mapper());
    const double blocks128 = runExperiment(cfg).rawGBps;
    cfg.device.maxBlock = MaxBlockSize::B32;
    cfg.pattern = one_page_one_vault(
        AddressMapper(HmcConfig::gen2_4GB(), MaxBlockSize::B32));
    const double blocks32 = runExperiment(cfg).rawGBps;
    EXPECT_GT(blocks32, blocks128 * 1.2);
}

TEST(Integration, ThermalShutdownPropagatesToResponses)
{
    Ac510Config sys;
    sys.numPorts = 1;
    sys.port.requestBudget = 5;
    Ac510Module module(sys);
    module.device().setThermalShutdown(true);
    module.start();
    module.runToCompletion();
    EXPECT_EQ(module.aggregateStats().thermalFailures, 5u);
}

TEST(Integration, RemoteQuadrantTrafficIsSlowerThanLocal)
{
    // Low-load single reads from port 0 (link 0, quadrant 0): a vault
    // in quadrant 3 answers two crossbar hops later than vault 0.
    StreamExperimentConfig local;
    local.requestsPerStream = 1;
    local.repetitions = 32;
    local.pattern =
        AccessPattern{"quad0", bitRangeMask(7, 10), 0, 1, 16};
    StreamExperimentConfig remote = local;
    remote.pattern = AccessPattern{
        "quad3", bitRangeMask(7, 10), Addr(12) << 7, 1, 16};
    const SampleStats lm = runStreamExperiment(local);
    const SampleStats rm = runStreamExperiment(remote);
    const HmcDeviceConfig dev;
    EXPECT_NEAR(rm.min() - lm.min(),
                2.0 * ticksToNs(dev.quadrantHopLatency), 1.0);
}

TEST(Integration, Hmc2ConfigRunsAndScalesVaults)
{
    // The simulator is not hard-wired to HMC 1.1: an HMC 2.0 cube
    // (32 vaults) accepts the same traffic.
    ExperimentConfig cfg;
    cfg.device.structure = HmcConfig::hmc2_4GB();
    cfg.measure = 200 * tickUs;
    const MeasurementResult m = runExperiment(cfg);
    EXPECT_GT(m.rawGBps, 15.0);
}

// ---- Property sweeps ----------------------------------------------------

// gtest names each case by dumping the parameter's bytes, so every
// byte is a member: padding left to the compiler would be uninitialised
// and would change the discovered test names from run to run.
struct SweepParam
{
    SweepParam(RequestMix m, Bytes s, unsigned v)
        : mix(m), size(s), vaults(v)
    {
    }

    RequestMix mix;
    std::uint8_t pad0[7] = {};
    Bytes size;
    unsigned vaults;
    std::uint32_t pad1 = 0;
};
static_assert(sizeof(SweepParam) == 24, "SweepParam must have no padding");

class ExperimentPropertySweep
    : public ::testing::TestWithParam<SweepParam>
{
};

TEST_P(ExperimentPropertySweep, Invariants)
{
    const SweepParam p = GetParam();
    ExperimentConfig cfg;
    cfg.pattern = vaultPattern(mapper(), p.vaults);
    cfg.mix = p.mix;
    cfg.requestSize = p.size;
    cfg.warmup = 50 * tickUs;
    cfg.measure = 200 * tickUs;
    const MeasurementResult m = runExperiment(cfg);

    // Work happened.
    EXPECT_GT(m.rawGBps, 0.1);
    // Raw bandwidth can never exceed the Eq. 2 peak.
    EXPECT_LT(m.rawGBps, 60.0);
    // Single-vault traffic respects the vault bound.
    if (p.vaults == 1) {
        EXPECT_LE(m.rawGBps, 10.5);
    }
    // Latency is at least the infrastructure minimum.
    if (p.mix != RequestMix::WriteOnly) {
        EXPECT_GT(m.readLatencyNs.min(), 400.0);
    }
    // Mix semantics.
    if (p.mix == RequestMix::ReadOnly) {
        EXPECT_DOUBLE_EQ(m.writeMrps, 0.0);
    } else if (p.mix == RequestMix::WriteOnly) {
        EXPECT_DOUBLE_EQ(m.readMrps, 0.0);
    } else {
        EXPECT_NEAR(m.readMrps / m.writeMrps, 1.0, 0.1);
    }
    // Payload accounting consistent with request counts.
    const double expected_read_payload =
        m.readMrps * 1e6 * static_cast<double>(p.size) / 1e9;
    EXPECT_NEAR(m.readPayloadGBps, expected_read_payload,
                expected_read_payload * 0.01 + 0.01);
}

std::string
sweepName(const ::testing::TestParamInfo<SweepParam> &info)
{
    return std::string(requestMixName(info.param.mix)) + "_" +
           std::to_string(info.param.size) + "B_" +
           std::to_string(info.param.vaults) + "v";
}

INSTANTIATE_TEST_SUITE_P(
    MixSizePattern, ExperimentPropertySweep,
    ::testing::Values(
        SweepParam{RequestMix::ReadOnly, 128, 16},
        SweepParam{RequestMix::ReadOnly, 32, 16},
        SweepParam{RequestMix::ReadOnly, 64, 1},
        SweepParam{RequestMix::ReadOnly, 16, 4},
        SweepParam{RequestMix::WriteOnly, 128, 16},
        SweepParam{RequestMix::WriteOnly, 64, 1},
        SweepParam{RequestMix::WriteOnly, 32, 2},
        SweepParam{RequestMix::ReadModifyWrite, 128, 16},
        SweepParam{RequestMix::ReadModifyWrite, 64, 8},
        SweepParam{RequestMix::ReadModifyWrite, 32, 1}),
    sweepName);

} // namespace
} // namespace hmcsim
