/**
 * @file
 * Regression locks on the paper-shape headlines.
 *
 * EXPERIMENTS.md records, per figure, the headline quantities our
 * calibrated model produces and how they compare to the paper. This
 * suite pins each of those headlines with a tolerance, so a future
 * model change that silently drifts the reproduction fails loudly
 * here rather than in a bench nobody re-reads. Tolerances are
 * deliberately tight around the recorded values, not around the
 * paper's (EXPERIMENTS.md documents the paper-vs-ours gaps).
 */

#include <gtest/gtest.h>

#include "analysis/regression.hh"
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
run(const AccessPattern &p, RequestMix mix, Bytes size,
    AddressingMode mode = AddressingMode::Random)
{
    ExperimentConfig cfg;
    cfg.pattern = p;
    cfg.mix = mix;
    cfg.requestSize = size;
    cfg.mode = mode;
    return runExperiment(cfg);
}

// ---- Fig. 6/7 bandwidth headlines -----------------------------------------

TEST(PaperShapes, Fig7DistributedBandwidths)
{
    const AccessPattern p = vaultPattern(mapper(), 16);
    EXPECT_NEAR(run(p, RequestMix::ReadOnly, 128).rawGBps, 20.0, 0.6);
    EXPECT_NEAR(run(p, RequestMix::ReadModifyWrite, 128).rawGBps, 27.3,
                0.8);
    EXPECT_NEAR(run(p, RequestMix::WriteOnly, 128).rawGBps, 15.8, 0.6);
}

TEST(PaperShapes, Fig7VaultCapAndSingleBank)
{
    EXPECT_NEAR(
        run(vaultPattern(mapper(), 1), RequestMix::ReadOnly, 128).rawGBps,
        10.0, 0.3);
    EXPECT_NEAR(
        run(bankPattern(mapper(), 1), RequestMix::ReadOnly, 128).rawGBps,
        3.1, 0.2);
}

TEST(PaperShapes, Fig6SingleVaultDrop)
{
    // The mask 2-9 -> 3-10 drop: 2 vaults at ~20, 1 vault at ~10.
    const auto sweep = fig6MaskSweep(mapper());
    EXPECT_NEAR(run(sweep[4], RequestMix::ReadOnly, 128).rawGBps, 20.0,
                0.6); // 2-9
    EXPECT_NEAR(run(sweep[3], RequestMix::ReadOnly, 128).rawGBps, 10.0,
                0.3); // 3-10
}

// ---- Fig. 8 ------------------------------------------------------------------

TEST(PaperShapes, Fig8MrpsScaling)
{
    const AccessPattern p = vaultPattern(mapper(), 16);
    const double m128 = run(p, RequestMix::ReadOnly, 128).mrps;
    const double m32 = run(p, RequestMix::ReadOnly, 32).mrps;
    EXPECT_NEAR(m128, 125.0, 4.0);
    EXPECT_NEAR(m32 / m128, 2.33, 0.1);
}

// ---- Fig. 9/10/11 thermal + power headlines -----------------------------------

TEST(PaperShapes, Fig9FailureSetLock)
{
    const PowerModel power;
    const AccessPattern p = vaultPattern(mapper(), 16);
    const TrafficSummary ro =
        run(p, RequestMix::ReadOnly, 128).traffic();
    const TrafficSummary wo =
        run(p, RequestMix::WriteOnly, 128).traffic();
    const TrafficSummary rw =
        run(p, RequestMix::ReadModifyWrite, 128).traffic();
    // ro: survives all; peak 77-78 C in Cfg4.
    const PowerThermalResult ro4 =
        power.solve(ro, RequestMix::ReadOnly, coolingConfig(4));
    EXPECT_FALSE(ro4.failure);
    EXPECT_NEAR(ro4.temperatureC, 77.4, 1.0);
    // wo: fails Cfg3 (at ~76 C), survives Cfg2.
    const PowerThermalResult wo3 =
        power.solve(wo, RequestMix::WriteOnly, coolingConfig(3));
    EXPECT_TRUE(wo3.failure);
    EXPECT_NEAR(wo3.temperatureC, 76.0, 1.0);
    EXPECT_FALSE(
        power.solve(wo, RequestMix::WriteOnly, coolingConfig(2)).failure);
    // rw: survives Cfg3 (74-74.5 C), fails Cfg4.
    const PowerThermalResult rw3 =
        power.solve(rw, RequestMix::ReadModifyWrite, coolingConfig(3));
    EXPECT_FALSE(rw3.failure);
    EXPECT_NEAR(rw3.temperatureC, 74.2, 0.8);
    EXPECT_TRUE(power.solve(rw, RequestMix::ReadModifyWrite,
                            coolingConfig(4))
                    .failure);
}

TEST(PaperShapes, Fig11RegressionSlopes)
{
    const PowerModel power;
    std::vector<double> bw, temps, watts;
    for (const AccessPattern &p : paperPatternAxis(mapper())) {
        const MeasurementResult m = run(p, RequestMix::ReadOnly, 128);
        const PowerThermalResult pt = power.solve(
            m.traffic(), RequestMix::ReadOnly, coolingConfig(2));
        bw.push_back(m.rawGBps);
        temps.push_back(pt.temperatureC);
        watts.push_back(pt.systemW);
    }
    const LinearFit t = linearFit(bw, temps);
    const LinearFit p = linearFit(bw, watts);
    // Paper: ~3 C and ~2 W over 5->20 GB/s for read-only in Cfg2.
    EXPECT_NEAR(15.0 * t.slope, 3.0, 0.5);
    EXPECT_NEAR(15.0 * p.slope, 1.9, 0.4);
}

// ---- Fig. 14/15/16 latency headlines -------------------------------------------

TEST(PaperShapes, Fig14InfrastructureLatency)
{
    Ac510Config sys;
    Ac510Module module(sys);
    const double infra = module.controller().infrastructureLatencyNs(
        requestBytes(Command::Read, 128),
        responseBytes(Command::Read, 128));
    EXPECT_NEAR(infra, 531.0, 10.0); // paper ~547
}

TEST(PaperShapes, Fig15MinimumRoundTrips)
{
    StreamExperimentConfig one;
    one.requestsPerStream = 1;
    one.repetitions = 32;
    one.requestSize = 128;
    const double min128 = runStreamExperiment(one).min();
    one.requestSize = 16;
    const double min16 = runStreamExperiment(one).min();
    EXPECT_NEAR(min128, 646.0, 15.0); // paper 711
    EXPECT_NEAR(min128 - min16, 55.0, 8.0); // paper ~56
}

TEST(PaperShapes, LocalQuadrantBeatsRemoteEndToEnd)
{
    // Sec. II-B and arXiv:1707.05399: a vault in the quadrant a link
    // enters at answers faster than one in another quadrant. One read
    // at a time from port 0, which enters at link 0's quadrant 0,
    // pinned first to vault 0 (quadrant 0), then to vault 15
    // (quadrant 3). Both runs draw the same banks and rows, so the
    // whole gap is the crossbar hop, paid on the way in and back.
    StreamExperimentConfig local;
    local.requestsPerStream = 1;
    local.repetitions = 32;
    local.pattern = vaultPattern(mapper(), 1);
    StreamExperimentConfig remote = local;
    remote.pattern.antiMask =
        bitRangeMask(mapper().vaultShift(),
                     mapper().vaultShift() + mapper().vaultBits() - 1);
    const double gap = runStreamExperiment(remote).mean() -
                       runStreamExperiment(local).mean();
    EXPECT_NEAR(gap, 2 * ticksToNs(local.device.quadrantHopLatency), 1e-6);
}

TEST(PaperShapes, Fig16LatencyEndpoints)
{
    const double fast =
        run(vaultPattern(mapper(), 16), RequestMix::ReadOnly, 32)
            .readLatencyNs.mean();
    const double slow =
        run(bankPattern(mapper(), 1), RequestMix::ReadOnly, 128)
            .readLatencyNs.mean();
    EXPECT_NEAR(fast, 1975.0, 60.0);  // paper 1,966 ns
    EXPECT_NEAR(slow, 29840.0, 900.0); // paper 24,233 ns
}

// ---- Fig. 18 saturation points ----------------------------------------------

TEST(PaperShapes, Fig18SaturationBandwidths)
{
    EXPECT_NEAR(
        run(vaultPattern(mapper(), 1), RequestMix::ReadOnly, 128).rawGBps,
        10.0, 0.3); // paper ~10
    EXPECT_NEAR(
        run(vaultPattern(mapper(), 2), RequestMix::ReadOnly, 128).rawGBps,
        20.0, 0.7); // paper ~19
}

// ---- Fig. 13 closed-page equivalence -------------------------------------------

TEST(PaperShapes, Fig13LinearRandomEquivalence)
{
    const AccessPattern p = vaultPattern(mapper(), 16);
    const double lin =
        run(p, RequestMix::ReadOnly, 128, AddressingMode::Linear).rawGBps;
    const double rnd =
        run(p, RequestMix::ReadOnly, 128, AddressingMode::Random).rawGBps;
    EXPECT_NEAR(lin / rnd, 1.0, 0.02);
}

} // namespace
} // namespace hmcsim
